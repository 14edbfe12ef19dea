"""Linear-algebra kernels for the continuation engine.

LU factorization with partial pivoting and an explicit permutation sign,
triangular solves, det signs and ``log|det|``, and the null mode of a nearly
singular matrix read off its factorization by one solve.  The det *sign* is
the event function for bifurcation detection, so it is tracked exactly
(permutation parity times pivot signs), not through a det that would
over/underflow.  No kernel calls LAPACK, whose results can depend on the
BLAS thread count.

``lu_factor`` takes a dense square matrix or a ``BandBorder``: a band matrix
``A`` (``kl`` sub- and ``ku`` superdiagonals) plus ``k`` dense border rows
and columns, which is how the models hand over their linearizations.

* A tridiagonal band, bordered or not, and a dense matrix whose nonzeros
  all lie on the three central diagonals (the AC/CH Jacobians), are
  eliminated in O(N) in the manner of LAPACK ``dgttrf``, with the dense
  kernel's pivoting rule (swap only if the subdiagonal entry is strictly
  larger), pivot floor and singularity rules, once per band.
* Any other band with at most two sub- and superdiagonals (ACOK's
  augmented Poisson form has ``kl = ku = 2``) gets a ``dgbtf2``-style band
  LU with partial pivoting inside the band, O(N); LAPACK makes the same
  split.  It is unrolled for ``kl = ku = 2`` over local variables: a
  narrower band is padded with zeros, whose updates it skips.  A wider
  band raises ``ValueError``.
* A band that is its own mirror bit for bit commutes with the reversal
  ``P`` of its unknowns (``_own_mirror``): an unbordered tridiagonal band
  of odd order (the AC/CH Jacobian at an even or odd state), whose
  unknowns ``P`` reverses one by one, and ACOK's augmented system with no
  border but its own (its Jacobian at an exactly reflection-even or -odd
  state), whose node pairs ``P`` reverses.  It is held as its even and odd
  parity blocks, about half the band each, each eliminated by its band's
  kernel, on the full band's floors, the first time it is used
  (``ParityLuFactorization``); ACOK's odd block carries no border.  An
  exactly even or odd right-hand side is solved on its own block alone,
  any other one on both, by its even and odd parts, so every solve is
  exactly reflection-equivariant: ``P b`` gets exactly ``P`` times the
  solution of ``b``, and Newton iterates from even or odd guesses keep
  their parity exactly.  Any other band solves top-down once.
* Borders (ACOK's border, the pseudo-arclength systems, the bordered
  Neumann problem) are eliminated by mixed block elimination (Govaerts &
  Pryce, *IMA J. Numer. Anal.* 13, 1993), which stays accurate when ``A``
  is singular, as at every fold and bifurcation point and, exactly, in the
  Neumann problem.  Either band kernel boosts a band pivot at rounding
  level (or on or below the singularity floor) to the band's size, which
  factors a rank-one change of ``A``; one more border takes it back out
  exactly.  The borders' k x k Schur block (k <= 3 in the engine) is
  factored and solved on Python floats.  The det sign is the band's
  permutation parity times its pivot signs times the Schur block's det
  sign (times -1 per boost).
* Any other dense matrix goes through a right-looking blocked LU whose
  Schur update runs through matrix-matrix products: the tests' reference,
  which the engine never calls.
* ``band_det_pass`` gives the det sign and ``log|det|`` of many systems of
  one shape in one pass, vectorized over the systems with numpy's
  elementwise operations and reductions only, so each result is a scalar
  kernel's bit for bit.  Bordered bands with ``kl`` or ``ku`` = 2 (ACOK's
  detection scan) take ``_band_lu``'s operations in its order on the whole
  system, as ``lu_factor(s, pivot_rtol=0.0)`` does on one it does not
  split; a system that would need a boosted band pivot comes back None.
  Plain tridiagonal bands (the AC/CH scans) take ``_band_factor``'s on the
  whole band, with an exact zero pivot giving ``(0, -inf)``.  Where
  ``lu_factor`` splits a band into its parity blocks, their ``log|det|``
  can differ from the pass's in the last bits; their det sign agreed with
  it across the AC/CH windows, at ACOK's three constant states over gamma
  in [0, 3000], and next to each crossing.  A system ``lu_factor`` would
  refuse for a non-finite entry comes back None too.  ``pass_size`` takes
  a pass only if it holds at least ``MIN_PASS_SYSTEMS``
  (``MIN_TRIDIAGONAL_PASS_SYSTEMS`` for a tridiagonal band) within
  ``PASS_BYTES``.

The band and Schur kernels run on Python lists, which beat numpy's per-call
cost at these sizes for one system; the tridiagonal and ``_band_lu``
kernels hold the entries they update in local variables, not list slots.  ``lu_factor`` takes the row sums behind
the pivot floors with numpy, then turns its input arrays into lists once
(only the Schur floor turns the borders' band solves back into an array);
``lu_solve`` turns the right-hand side into a list and the solution into an
array once.
A ``BandBorder`` whose ``outer`` lists every unknown needs no scatter or
gather around that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Callable, Iterable, Optional, Union

import numpy as np

__all__ = [
    "BandBorder",
    "LuFactorization",
    "BandLuFactorization",
    "ParityLuFactorization",
    "BorderedLuFactorization",
    "SingularMatrixError",
    "lu_factor",
    "lu_solve",
    "det_sign",
    "log_abs_det",
    "null_vector",
    "pass_size",
    "band_det_pass",
]

#: Default relative pivot floor: a pivot whose magnitude falls below
#: ``DEFAULT_PIVOT_RTOL * max-row-sum-norm`` marks the matrix singular.
DEFAULT_PIVOT_RTOL = 1e-12

#: Band pivots of magnitude at most this times the band's max row sum
#: (or at most the singularity floor, if higher) are boosted and corrected
#: through a border; see ``_band_lu`` and ``_band_factor``.
_BOOST_RTOL = 1e-14

#: Panel width of ``lu_factor``'s blocked Schur update.  It sets only the
#: speed; the factors agree to rounding for any positive width.
_LU_BLOCK = 48

#: ``band_det_pass`` is taken only if each pass holds at least this many
#: systems: below about 25 its per-step numpy calls cost more than factoring
#: the systems one at a time (ACOK at N = 100 and 800, on a 2-vCPU x86-64
#: host with numpy 2.4).
MIN_PASS_SYSTEMS = 32

#: The same for a plain tridiagonal band (``_tridiagonal_det_pass``, about
#: a dozen numpy calls per row): on the same host it broke even with
#: ``lu_factor`` one system at a time at about 25 systems for N = 100 and
#: 200 and about 31 for N = 800, and ran 1.3-1.8x faster at 40 and
#: 2.6-3.6x at 128.
MIN_TRIDIAGONAL_PASS_SYSTEMS = 40

#: Bytes of one ``band_det_pass``'s arrays at most: 364 ACOK systems at
#: N = 100, 184 at N = 200 and 36 at N = 1024; from N = 2048 on, fewer than
#: ``MIN_PASS_SYSTEMS``, so those scans factor one system at a time.  For
#: plain tridiagonal bands: 856 at N = 100, 108 at N = 800 and 85 at
#: N = 1024; from N = 4096 on, fewer than ``MIN_TRIDIAGONAL_PASS_SYSTEMS``.
PASS_BYTES = 4 << 20


class SingularMatrixError(RuntimeError):
    """Raised when a solve is attempted with a factorization flagged singular."""


@dataclass
class LuFactorization:
    """Packed result of ``lu_factor`` on a dense matrix.

    ``packed`` holds U on and above the diagonal and the unit-lower
    multipliers strictly below it, of ``a[perm]``; ``perm_sign`` is the
    parity of ``perm``.  ``singular`` flags a pivot magnitude on or below
    ``pivot_floor``.  A ``BorderedLuFactorization``'s Schur block is held
    the same way, with ``packed`` and ``perm`` as Python lists.
    """

    packed: np.ndarray
    perm: np.ndarray
    perm_sign: int
    singular: bool
    pivot_floor: float


@dataclass
class BandLuFactorization:
    """Result of ``lu_factor`` on a tridiagonal matrix (the band of a bordered one too).

    Step ``k`` of the elimination works on rows ``k`` and ``k + 1`` only:
    it interchanges them if ``swapped[k]``, then subtracts ``lower[k]``
    times row ``k`` from row ``k + 1``.  ``U`` has ``pivots`` on its
    diagonal, ``upper`` on the first and ``upper2`` (fill-in left by the
    interchanges, zero elsewhere) on the second superdiagonal.

    Attributes
    ----------
    lower, pivots, upper, upper2, swapped:
        Lists of length n-1, n, n-1, n-2 and n-1 (as far as nonnegative).
    perm_sign, singular, pivot_floor:
        As in ``LuFactorization``.
    boosts:
        The band of a bordered matrix is factored with its small pivots
        boosted instead of flagged (``_band_factor``); each boost is listed
        as ``(original row, step, delta)``.  Empty otherwise.
    """

    lower: list
    pivots: list
    upper: list
    upper2: list
    swapped: list
    perm_sign: int
    singular: bool
    pivot_floor: float
    boosts: list


@dataclass(eq=False)
class ParityLuFactorization:
    """Result of ``lu_factor`` on a band that is its own mirror, with ``2m + 1`` visible unknowns: its two parity blocks.

    The band is either an unbordered tridiagonal one of order ``2m + 1``
    (the AC/CH Jacobian at an even or odd state), whose unknowns the
    reversal ``P`` maps one by one, or ACOK's augmented system (``kl = ku
    = 2``, the one border ``s``, the node values ``v_i`` of its ``2m + 1``
    pairs ``(v_i, u_i)`` visible), whose pairs ``P`` maps as wholes
    (``_own_mirror`` tests both).  Such a band ``J`` commutes with ``P``,
    so it maps even vectors to even ones and odd to odd: its two isotropy
    blocks (Golubitsky, Stewart & Schaeffer, *Singularities and Groups in
    Bifurcation Theory* II, ch. XIII; Dellnitz & Werner, *J. Comput. Appl.
    Math.* 26, 1989).  With node (pair) ``m`` in the middle:

    * an even ``x`` has ``x[m + 1] = x[m - 1]``, so the even block is
      nodes (pairs) ``0 .. m``, the middle one's couplings to ``m + 1``
      folded onto those to ``m - 1``; ACOK's keeps the border, with its row
      folded to ``w_i + w_{N - i}``;
    * an odd ``x`` has ``x[m] = 0``, so the odd block is nodes (pairs) ``0
      .. m - 1``; and ``s = 0`` and ``w^T u = 0`` hold on odd vectors, so
      ACOK's carries no border.

    ``det J`` is the product of the blocks' dets (times ``hidden_sign``
    for ACOK's visible system).  ``block(parity)`` builds and factors the
    even (0) or the odd (1) block by ``factor(parity)``, on the full
    band's floors, on its first use: ``(sub, diag, sup)`` lists by
    ``_band_factor`` for a tridiagonal band, a ``BandBorder`` by
    ``_bordered_factor`` for ACOK's.  So a solve with an exactly even or
    odd right-hand side never factors the other block; ``singular``
    (either block flagged) factors both.  ``half`` is ``m``, and ``pairs``
    is ACOK's whole system, None for a tridiagonal band.
    """

    half: int
    pivot_floor: float
    factor: Callable
    pairs: Optional["BandBorder"] = None
    factors: list = field(default_factory=lambda: [None, None])

    def block(self, parity: int):
        """The factors of the even (0) or the odd (1) block."""
        fact = self.factors[parity]
        if fact is None:
            fact = self.factors[parity] = self.factor(parity)
        return fact

    @property
    def singular(self) -> bool:
        return self.block(0).singular or self.block(1).singular


@dataclass(frozen=True, eq=False)
class BandBorder:
    """A band matrix ``A`` plus ``k`` dense border rows and columns.

    The full matrix is ``[[A, cols], [rows, corner]]`` of order ``nb + k``.
    ``A`` (order ``nb``) is held in row-wise band storage,
    ``band[i, kl + j - i] = A[i, j]`` for ``-kl <= j - i <= ku``, where
    ``ku = band.shape[1] - 1 - kl``; entries outside ``A`` are zero.
    ``lu_factor`` takes ``kl`` and ``ku`` up to 2.

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
    # ``outer`` lists every unknown in order: solves need no scatter or gather.
    _all_outer: bool = field(init=False, repr=False)

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
        every = np.arange(nb + k)
        outer = every if self.outer is None else np.asarray(self.outer)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "_all_outer", outer is every or np.array_equal(outer, every))

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
        nb, k, outer = self.band.shape[0], self.k, self.outer
        col, row = np.asarray(col, dtype=float), np.asarray(row, dtype=float)
        if col.shape != outer.shape or row.shape != outer.shape:
            raise ValueError(f"col and row have shapes {col.shape} and {row.shape}, expected {outer.shape}")
        if not self._all_outer:  # place them on the full matrix's unknowns
            full = np.zeros((2, nb + k))
            full[:, outer] = col, row
            col, row = full
        new_corner = np.empty((k + 1, k + 1))
        new_corner[:k, :k] = self.corner
        new_corner[:k, k] = col[nb:]
        new_corner[k, :k] = row[nb:]
        new_corner[k, k] = corner
        return BandBorder(
            band=self.band, kl=self.kl,
            cols=np.concatenate((self.cols, col[:nb, None]), axis=1),
            rows=np.concatenate((self.rows, row[None, :nb])),
            corner=new_corner, outer=None if self._all_outer else np.append(outer, nb + k),
            hidden_sign=self.hidden_sign,
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
class _GeneralBandLu:
    """Factors of ``_band_lu``: a band other than tridiagonal, ``kl, ku <= 2``.

    Step ``j`` of the elimination interchanges rows ``j`` and ``swaps[j]``,
    then subtracts ``mults[j][i]`` times row ``j`` from row ``j + 1 + i``.
    ``U`` has ``pivots`` on its diagonal and ``tails[j]`` right of it in
    row ``j``.  ``mults[j]`` and ``tails[j]`` are tuples of 2 and 4 entries,
    zero where they fall outside the band or the matrix.  ``perm_sign`` is
    the parity of the interchanges and ``boosts`` lists the boosted pivots.
    """

    pivots: list
    tails: list
    mults: list
    swaps: list
    perm_sign: int
    boosts: list


@dataclass
class BorderedLuFactorization:
    """Result of ``lu_factor`` on a ``BandBorder`` (other than a plain tridiagonal).

    ``band`` holds the factors of the band ``A``, from the ``dgttrf``-style
    kernel if it is tridiagonal and the ``dgbtf2``-style one otherwise;
    ``solve`` and ``solve_t`` (``A^-1 x``, ``A^-T x``) are that kernel's.
    ``cols``, ``rows`` and ``corner`` are the borders as lists, one more
    per boosted pivot (``_bordered_factor``); ``right`` is ``A^-1 cols`` and
    ``schur`` the LU of the Schur block ``corner - rows A^-1 cols``.  The
    transposed-side counterparts (``left``) are made on the first solve.
    ``perm_sign`` is the band's interchange parity, times -1 per boost.

    ``pivot_floor`` is ``pivot_rtol`` times the full matrix's max row sum,
    as in ``LuFactorization``; every band pivot on or below it is boosted.
    ``singular`` flags a Schur pivot on or below ``schur_floor``, which is
    ``pivot_rtol`` times the max row sum of ``|corner| + |rows| |A^-1 cols|``:
    at 0.0 only an exactly zero Schur pivot counts.
    """

    system: BandBorder
    band: Union[BandLuFactorization, _GeneralBandLu]
    solve: Callable
    solve_t: Callable
    perm_sign: int
    cols: list
    rows: list
    corner: list
    right: list
    schur: Optional[LuFactorization]
    singular: bool
    pivot_floor: float
    schur_floor: float
    left: Optional[tuple] = None

    @property
    def pivots(self) -> list:
        """The band's pivots (boosted ones as boosted)."""
        return self.band.pivots


Factorization = Union[LuFactorization, BandLuFactorization, ParityLuFactorization, BorderedLuFactorization]


def _as_square_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _tridiagonal_band(a: np.ndarray) -> Optional[tuple]:
    """``(sub, diag, super)`` arrays if every nonzero of ``a`` is on them.

    ``count_nonzero`` counts NaN and inf, so equal counts also prove every
    off-band entry an exact, finite zero; ``_band_floor`` checks the band.
    """
    diagonals = (np.diagonal(a, -1), np.diagonal(a), np.diagonal(a, 1))
    if np.count_nonzero(a) != sum(np.count_nonzero(d) for d in diagonals):
        return None
    return diagonals


def _diagonals(band: np.ndarray) -> tuple:
    """``(sub, diag, super)`` arrays of a tridiagonal band in row-wise storage."""
    return band[1:, 0], band[:, 1], band[:-1, 2]


def _band_floor(band: tuple, pivot_rtol: float) -> float:
    """``pivot_rtol`` times the max row sum of ``|a|``, as in the dense path, from ``a``'s diagonal arrays.

    Each row sums its two off-diagonal entries first, so the mirrored
    matrix gets the same floor bit for bit.
    """
    sub, diag, sup = band
    off = np.zeros(len(diag))
    np.abs(sub, out=off[1:])
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        off[:-1] += np.abs(sup)
        off += np.abs(diag)
    return float(pivot_rtol) * _finite_max(off)


def _own_mirror(band) -> bool:
    """Whether a band equals its mirror under the reversal of its unknowns, bit for bit, signed zeros included.

    ``band`` is either a tridiagonal's ``(sub, diag, sup)`` arrays, whose
    unknowns are reversed one by one: it is its own mirror if it equals
    ``(sup[::-1], diag[::-1], sub[::-1])``.  Or it is a ``BandBorder`` with
    ``kl = ku = 2`` and one border (ACOK's), whose unknowns are reversed in
    pairs ``(v_i, u_i)``: row ``2i + t`` must equal row ``2(n - 1 - i) + t``
    with its offsets -2 and +2 exchanged, its couplings across pairs at
    offsets -1 (a v-row) and +1 (a u-row) must be zero, and the border
    column and row must equal their pair reversals.  Only then is the
    reversal exact on every entry, and the band's parity blocks
    (``ParityLuFactorization``) its restrictions.
    """
    if not isinstance(band, BandBorder):
        sub, diag, sup = band
        return sub.tobytes() == sup[::-1].tobytes() and diag.tobytes() == diag[::-1].tobytes()
    pairs = band.band.reshape(-1, 2, 5)
    cols, rows = band.cols.reshape(-1, 2), band.rows.reshape(-1, 2)
    return (
        not pairs[:, 0, 1].any() and not pairs[:, 1, 3].any()
        and pairs[:, :, ::2].tobytes() == pairs[::-1, :, ::-2].tobytes()
        and pairs[:, 0, 3].tobytes() == pairs[::-1, 0, 3].tobytes()
        and pairs[:, 1, 1].tobytes() == pairs[::-1, 1, 1].tobytes()
        and cols.tobytes() == cols[::-1].tobytes() and rows.tobytes() == rows[::-1].tobytes()
    )


def _finite_max(row_sums: np.ndarray) -> float:
    """The largest row sum (0.0 if none); a NaN or inf entry leaves its sum non-finite: ValueError."""
    top = float(row_sums.max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError("matrix contains non-finite entries")
    return top


def _band_factor(band: tuple, floor: float, boost: Optional[float] = None) -> BandLuFactorization:
    """gttrf-style elimination of a tridiagonal matrix given by its diagonals.

    The pivot rule, floor test and zero-pivot skip are the dense kernel's.
    With ``boost``, a pivot on or below ``floor`` is boosted by ``+-boost``
    instead of flagging the matrix singular, and recorded in ``boosts``
    exactly as ``_band_lu`` does; the factors are then ``_band_lu``'s.
    Step ``k`` holds row ``k``'s running diagonal and superdiagonal entries
    in the locals ``piv`` and ``u``, and reads row ``k + 1`` as it comes.
    """
    sub, diag, sup = band
    n = len(diag)
    pivots = [0.0] * n
    upper = [0.0] * max(n - 1, 0)
    lower = [0.0] * max(n - 1, 0)
    upper2 = [0.0] * max(n - 2, 0)
    swapped = [False] * max(n - 1, 0)
    boosts = []
    sign = 1
    singular = False
    last = n - 2  # the last step, which leaves no fill-in
    piv, u = (diag[0] if n else 0.0), (sup[0] if n > 1 else 0.0)
    for k, below, dn, un in zip(range(n - 1), sub, diag[1:], [*sup[1:], 0.0]):
        mag, mag_below = abs(piv), abs(below)
        if mag_below > mag:
            # Row k+1 becomes the pivot row; row k is eliminated below it.
            if mag_below <= floor:
                if boost is None:
                    singular = True
                else:
                    below += _boosted(boosts, k + 1, k, below, boost)
            swapped[k] = True
            sign = -sign
            mult = piv / below
            pivots[k], upper[k], lower[k] = below, dn, mult
            piv = u - mult * dn
            if k < last:
                upper2[k] = un
                u = 0.0 - mult * un
        else:
            # Row k stays the pivot row.  In both branches a small pivot is
            # boosted before its multipliers are formed.
            if mag <= floor:
                if boost is None:
                    singular = True
                    if piv == 0.0:
                        pivots[k], upper[k] = piv, u
                        piv, u = dn, un
                        continue
                else:
                    piv += _boosted(boosts, _origin(swapped, k), k, piv, boost)
            mult = below / piv
            pivots[k], upper[k], lower[k] = piv, u, mult
            piv, u = dn - mult * u, un
    if n:
        if abs(piv) <= floor:
            if boost is None:
                singular = True
            else:
                piv += _boosted(boosts, _origin(swapped, n - 1), n - 1, piv, boost)
        pivots[n - 1] = piv
    return BandLuFactorization(
        lower=lower, pivots=pivots, upper=upper, upper2=upper2, swapped=swapped,
        perm_sign=sign, singular=singular, pivot_floor=floor, boosts=boosts,
    )


def _boosted(boosts: list, row: int, step: int, piv: float, boost: float) -> float:
    """Record the boost of pivot ``piv`` (original row ``row``) and return its delta."""
    delta = -boost if piv < 0.0 else boost
    boosts.append((row, step, delta))
    return delta


def _origin(swapped: list, k: int) -> int:
    """Original index of the row at position ``k`` before step ``k``.

    Step ``k - 1`` moves the row at position ``k - 1`` down to ``k`` exactly
    when it interchanges; otherwise row ``k`` has not moved.
    """
    while k and swapped[k - 1]:
        k -= 1
    return k


def _band_solve(fact: BandLuFactorization, b: list) -> list:
    """Top-down forward and back substitution through ``fact`` (O(n)).

    Going down, ``cur`` holds ``x[k]`` and ``nxt`` ``x[k + 1]``; going back
    up, ``s1, s2`` hold ``x[k + 1], x[k + 2]``.
    """
    n = len(b)
    if not n:
        return []
    x = [0.0] * n
    cur = b[0]
    for k, mult, swap, nxt in zip(range(n - 1), fact.lower, fact.swapped, b[1:]):
        if swap:
            cur, nxt = nxt, cur
        x[k] = cur
        cur = nxt - mult * cur
    d, du, du2 = fact.pivots, fact.upper, fact.upper2
    s1 = x[n - 1] = cur / d[n - 1]
    if n > 1:
        s2, s1 = s1, (x[n - 2] - du[n - 2] * s1) / d[n - 2]
        x[n - 2] = s1
        for k in range(n - 3, -1, -1):
            s2, s1 = s1, (x[k] - du[k] * s1 - du2[k] * s2) / d[k]
            x[k] = s1
    return x


def _band_solve_t(fact: BandLuFactorization, b: list) -> list:
    """``A^-T b`` through ``fact``: ``U^T`` forward, then the steps transposed, last first.

    Going forward, ``s1, s2`` hold ``x[k - 1], x[k - 2]``; going back,
    ``w`` holds ``x[k + 1]``, final once step ``k`` has run.
    """
    n = len(b)
    if not n:
        return []
    d, du, du2 = fact.pivots, fact.upper, fact.upper2
    x = [0.0] * n
    s1 = x[0] = b[0] / d[0]
    if n > 1:
        s2, s1 = s1, (b[1] - du[0] * s1) / d[1]
        x[1] = s1
        for k in range(2, n):
            s2, s1 = s1, (b[k] - du2[k - 2] * s2 - du[k - 1] * s1) / d[k]
            x[k] = s1
    w = s1
    for k, mult, swap in zip(range(n - 2, -1, -1), reversed(fact.lower), reversed(fact.swapped)):
        v = x[k] - mult * w
        if swap:
            v, w = w, v
        x[k + 1] = w
        w = v
    x[0] = w
    return x


def _dot(a: list, b: list) -> float:
    return math.fsum(map(mul, a, b))


def _band_lu(system: BandBorder, boost_floor: float, boost: float) -> _GeneralBandLu:
    """Band LU with partial pivoting inside the band (``dgbtf2``-style), for ``kl, ku <= 2``.

    The band is padded to ``kl = ku = 2`` storage with every entry outside
    ``A`` zero, plus three zero rows below.  Step ``j`` holds rows ``j ..
    j + 2`` over columns ``j .. j + 4`` (all the interchanges can reach)
    in the 15 locals ``a0 .. c4``, and shifts row ``j + 3`` in as it moves
    on.  The first strictly largest entry of column ``j`` pivots.  A pivot
    of magnitude ``<= boost_floor`` is boosted by ``delta = +-boost`` (the
    pivot's sign, + for zero): that factors ``A + delta e_r e_j^T`` exactly,
    with ``r`` the pivot row's original index, and ``_bordered_factor`` takes
    the correction back out through one more border; ``boosts`` lists
    ``(r, j, delta)``.  A zero multiplier, and an update by a zero ``U``
    entry, are skipped.
    """
    kl, ku = system.kl, system.ku
    if kl > 2 or ku > 2:
        raise ValueError(f"band LU takes at most 2 sub- and superdiagonals, got kl={kl}, ku={ku}")
    nb = system.band.shape[0]
    padded = np.zeros((nb + 3, 5))
    padded[:nb, 2 - kl : 3 + ku] = system.band
    for i in range(min(2, nb)):  # left of column 0
        padded[i, : 2 - i] = 0.0
    for i in range(max(0, nb - 2), nb):  # right of column nb - 1
        padded[i, nb + 2 - i :] = 0.0
    rows = padded.tolist()
    a0, a1, a2, a3, a4 = rows[0][2:] + [0.0] * 2
    b0, b1, b2, b3, b4 = rows[1][1:] + [0.0]
    c0, c1, c2, c3, c4 = rows[2]
    origin = list(range(nb))
    pivots, tails, mults, swaps = [0.0] * nb, [None] * nb, [None] * nb, list(range(nb))
    boosts = []
    sign = 1
    for j in range(nb):
        p, best = 0, abs(a0)
        v = abs(b0)
        if v > best:
            p, best = 1, v
        if abs(c0) > best:
            p = 2
        if p:
            if p == 1:
                a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 = b0, b1, b2, b3, b4, a0, a1, a2, a3, a4
            else:
                a0, a1, a2, a3, a4, c0, c1, c2, c3, c4 = c0, c1, c2, c3, c4, a0, a1, a2, a3, a4
            origin[j], origin[j + p] = origin[j + p], origin[j]
            sign = -sign
            swaps[j] = j + p
        if abs(a0) <= boost_floor:
            delta = -boost if a0 < 0.0 else boost
            boosts.append((origin[j], j, delta))
            a0 = a0 + delta
        m1 = m2 = 0.0
        if b0 != 0.0:
            m1 = f = b0 / a0
            if a1 != 0.0: b1 -= f * a1
            if a2 != 0.0: b2 -= f * a2
            if a3 != 0.0: b3 -= f * a3
            if a4 != 0.0: b4 -= f * a4
        if c0 != 0.0:
            m2 = f = c0 / a0
            if a1 != 0.0: c1 -= f * a1
            if a2 != 0.0: c2 -= f * a2
            if a3 != 0.0: c3 -= f * a3
            if a4 != 0.0: c4 -= f * a4
        pivots[j], tails[j], mults[j] = a0, (a1, a2, a3, a4), (m1, m2)
        a0, a1, a2, a3, a4 = b1, b2, b3, b4, 0.0
        b0, b1, b2, b3, b4 = c1, c2, c3, c4, 0.0
        c0, c1, c2, c3, c4 = rows[j + 3]
    return _GeneralBandLu(pivots=pivots, tails=tails, mults=mults, swaps=swaps, perm_sign=sign, boosts=boosts)


def _band_lu_solve(fact: _GeneralBandLu, b: list) -> list:
    """``A^-1 b`` through the band factors, with ``x[j] .. x[j + 2]`` in the
    locals ``x0 .. x2`` on the way down and ``x[j + 1] .. x[j + 4]`` in
    ``s1 .. s4`` on the way back up (zero past the end)."""
    nb = len(b)
    ext = b + [0.0] * 3
    x0, x1, x2 = ext[:3]
    y = [0.0] * nb
    for j, p, (f1, f2) in zip(range(nb), fact.swaps, fact.mults):
        if p != j:
            if p == j + 1:
                x0, x1 = x1, x0
            else:
                x0, x2 = x2, x0
        if x0 != 0.0:
            if f1 != 0.0: x1 -= f1 * x0
            if f2 != 0.0: x2 -= f2 * x0
        y[j] = x0
        x0, x1, x2 = x1, x2, ext[j + 3]
    s1 = s2 = s3 = s4 = 0.0
    for j, (u1, u2, u3, u4), piv in zip(range(nb - 1, -1, -1), reversed(fact.tails), reversed(fact.pivots)):
        v = y[j]
        if u1 != 0.0: v -= u1 * s1
        if u2 != 0.0: v -= u2 * s2
        if u3 != 0.0: v -= u3 * s3
        if u4 != 0.0: v -= u4 * s4
        s4, s3, s2 = s3, s2, s1
        y[j] = s1 = v / piv
    return y


def _band_lu_solve_t(fact: _GeneralBandLu, b: list) -> list:
    """``A^-T b`` through the band factors, over ``b`` padded with four zeros.

    Going back up, ``w1, w2`` hold ``x[j + 1], x[j + 2]``; step ``j``
    interchanges no lower than ``j + 2``, so ``x[j + 2]`` is final after it.
    """
    nb = len(b)
    x = b + [0.0] * 4
    for j, piv, (u1, u2, u3, u4) in zip(range(nb), fact.pivots, fact.tails):
        xj = x[j] = x[j] / piv
        if xj != 0.0:
            if u1 != 0.0: x[j + 1] -= u1 * xj
            if u2 != 0.0: x[j + 2] -= u2 * xj
            if u3 != 0.0: x[j + 3] -= u3 * xj
            if u4 != 0.0: x[j + 4] -= u4 * xj
    w1 = w2 = 0.0
    for j, (f1, f2), p in zip(range(nb - 1, -1, -1), reversed(fact.mults), reversed(fact.swaps)):
        v = x[j]
        if f1 != 0.0: v -= f1 * w1
        if f2 != 0.0: v -= f2 * w2
        if p != j:
            if p == j + 1:
                v, w1 = w1, v
            else:
                v, w2 = w2, v
        x[j + 2] = w2
        w1, w2 = v, w1
    x[0], x[1] = w1, w2
    del x[nb:]
    return x


def _floors(system: BandBorder, pivot_rtol: float, abs_rows: np.ndarray, corner_sums: np.ndarray) -> tuple:
    """``(floor, boost_floor, boost)`` of ``_bordered_factor`` for ``system``, given ``|rows|`` and ``|corner|``'s row sums.

    Row sums of the full matrix's magnitudes give the floor, ``pivot_rtol``
    times their largest, and the band's alone the boost (``_band_lu``).
    Called under ``np.errstate(over="ignore")``: an overflowing sum is
    refused by ``_finite_max``.
    """
    band_sums = np.abs(system.band).sum(axis=1)
    band_rows, border_rows = band_sums + np.abs(system.cols).sum(axis=1), abs_rows.sum(axis=1) + corner_sums
    floor = float(pivot_rtol) * max(_finite_max(band_rows), _finite_max(border_rows))
    scale = float(band_sums.max(initial=0.0))
    return floor, max(floor, _BOOST_RTOL * scale), scale if scale > 0.0 else 1.0


def _bordered_factor(system: BandBorder, pivot_rtol: float, floors: Optional[tuple] = None) -> BorderedLuFactorization:
    """Band LU of ``A``, then the borders' Schur block (module docstring).

    A tridiagonal ``A`` goes through ``_band_factor``, any other through
    ``_band_lu``; on a tridiagonal band both give the same factors and
    boosts.  Each boosted pivot ``(r, j, delta)`` becomes one more border:
    column ``-delta e_r``, row ``e_j^T`` and corner -1, whose unknown is
    ``x_j``, so the extended system is exact for ``A`` and its det is
    ``(-1)^boosts`` times the user matrix's.  ``floors``, ``(floor,
    boost_floor, boost)``, replaces the ones ``system`` gives (a parity
    block of ACOK's band takes the whole band's; ``lu_factor``).
    """
    abs_rows = np.abs(system.rows)
    with np.errstate(over="ignore"):
        corner_sums = np.abs(system.corner).sum(axis=1)
        floor, boost_floor, boost = floors or _floors(system, pivot_rtol, abs_rows, corner_sums)
    if system.kl == system.ku == 1:
        sub, diag, sup = system.band.T.tolist()
        band = _band_factor((sub[1:], diag, sup[:-1]), boost_floor, boost)
        solve, solve_t = _band_solve, _band_solve_t
    else:
        band = _band_lu(system, boost_floor, boost)
        solve, solve_t = _band_lu_solve, _band_lu_solve_t
    boosts = band.boosts
    cols = system.cols.T.tolist()
    rows = system.rows.tolist()
    corner = [r + [0.0] * len(boosts) for r in system.corner.tolist()]
    k = len(cols) + len(boosts)
    for i, (r, j, delta) in enumerate(boosts, len(cols)):
        cols.append([0.0] * len(system.band))
        cols[i][r] = -delta
        rows.append([0.0] * len(system.band))
        rows[i][j] = 1.0
        corner.append([0.0] * k)
        corner[i][i] = -1.0
    right = [solve(band, c) for c in cols]
    schur = _schur_factor(corner, rows, right)
    # A Schur pivot is zero to within pivot_rtol if it cancels that far below
    # the max row sum of |corner| + |rows| |right|, which is 1 + the sum of
    # |right| at j for a boost's border (row e_j^T, corner -1).
    schur_floor = 0.0
    if pivot_rtol and k:
        right_sums = np.add.reduce(np.abs(right))
        terms = corner_sums + (abs_rows * right_sums).sum(axis=1)
        if boosts:
            terms = np.append(terms, 1.0 + right_sums[[j for _, j, _ in boosts]])
        schur_floor = float(pivot_rtol) * float(terms.max())
    return BorderedLuFactorization(
        system=system, band=band, solve=solve, solve_t=solve_t,
        perm_sign=band.perm_sign * (-1 if len(boosts) % 2 else 1),
        cols=cols, rows=rows, corner=corner, right=right, schur=schur, pivot_floor=floor, schur_floor=schur_floor,
        singular=any(abs(r[j]) <= schur_floor for j, r in enumerate(schur.packed)),
    )


def _schur_factor(corner: list, rows: list, right: list) -> LuFactorization:
    """LU of the k x k block ``corner[i][c] - rows[i] . right[c]``, on Python floats.

    Step for step ``_dense_factor(block, 0.0)``: the first largest entry of
    the column pivots, and an exactly zero pivot flags the block singular
    and eliminates nothing.
    """
    k = len(corner)
    a = [[corner[i][c] - _dot(rows[i], right[c]) for c in range(k)] for i in range(k)]
    perm = list(range(k))
    sign = 1
    singular = False
    for j in range(k):
        p = max(range(j, k), key=lambda i: abs(a[i][j]))
        if p != j:
            a[j], a[p] = a[p], a[j]
            perm[j], perm[p] = perm[p], perm[j]
            sign = -sign
        piv = a[j][j]
        if piv == 0.0:
            singular = True
            continue
        for i in range(j + 1, k):
            f = a[i][j] = a[i][j] / piv
            for c in range(j + 1, k):
                a[i][c] -= f * a[j][c]
    return LuFactorization(packed=a, perm=perm, perm_sign=sign, singular=singular, pivot_floor=0.0)


def _schur_solve(lu: LuFactorization, b: list) -> list:
    """Forward and back substitution through the Schur block's ``lu``, on Python floats.

    Dot products are summed left to right from 0.0: BLAS kernels sum those
    of length 2 and up (k >= 3) differently on different CPUs.
    """
    a, x = lu.packed, [b[p] for p in lu.perm]
    for i in range(len(x)):
        x[i] -= reduce(add, map(mul, a[i][:i], x[:i]), 0.0)
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - reduce(add, map(mul, a[i][i + 1:], x[i + 1:]), 0.0)) / a[i][i]
    return x


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
    if fact.left is None:
        left = [fact.solve_t(fact.band, r) for r in fact.rows]
        fact.left = (left, _schur_factor(fact.corner, left, fact.cols))
    left, schur_t = fact.left
    if schur_t.singular:
        raise SingularMatrixError("singular border block")
    y1 = _schur_solve(schur_t, [g[i] - _dot(left[i], f) for i in range(k)])
    for c, yc in zip(fact.cols, y1):
        if yc != 0.0:
            f = [a - yc * v for a, v in zip(f, c)]
    g1 = [g[i] - _dot(fact.corner[i], y1) for i in range(k)]
    xi = fact.solve(fact.band, f)
    y2 = _schur_solve(fact.schur, [g1[i] - _dot(fact.rows[i], xi) for i in range(k)])
    for w, yc in zip(fact.right, y2):
        if yc != 0.0:
            xi = [a - yc * v for a, v in zip(xi, w)]
    return xi + [u + v for u, v in zip(y1, y2)][:visible]


def lu_factor(matrix, pivot_rtol: float = DEFAULT_PIVOT_RTOL) -> Factorization:
    """LU-factor a square matrix with partial (row) pivoting; the input is not modified.

    ``matrix`` is a ``BandBorder`` or a dense square array-like.  A plain
    tridiagonal ``BandBorder``, or a dense matrix whose nonzeros all lie on
    the three central diagonals, gets a ``ParityLuFactorization`` if it is
    of odd order (3 or more) and its own mirror bit for bit, whose blocks
    are factored on first use, and a ``BandLuFactorization`` in O(n)
    otherwise.  So does ACOK's augmented system (``_pair_band``: ``kl =
    ku = 2``, its one border and no other, the first unknown of each of
    an odd number of pairs visible) if it is its own mirror under the
    reversal of its pairs.  Any other ``BandBorder`` gets a
    ``BorderedLuFactorization`` in O(n), whose band is factored by the
    same tridiagonal kernel if it is tridiagonal; any other dense matrix a
    dense ``LuFactorization``.  A ``BandBorder`` with ``kl`` or ``ku``
    above 2 raises ``ValueError``.

    ``pivot_rtol`` is the relative singularity threshold: the absolute floor
    is ``pivot_rtol * max_i sum_j |a_ij|``.  0.0 flags only exact zero
    pivots (the bifurcation detector needs pivot *signs* arbitrarily close
    to a singularity).  The parity blocks are factored on the whole band's
    floors.
    """
    if isinstance(matrix, BandBorder):
        if not _plain_tridiagonal(matrix):
            if _pair_band(matrix) and _own_mirror(matrix):
                return _pair_parity_factor(matrix, pivot_rtol)
            return _bordered_factor(matrix, pivot_rtol)
        band = _diagonals(matrix.band)
    else:
        a = _as_square_matrix(matrix)
        band = _tridiagonal_band(a)
        if band is None:
            if not np.all(np.isfinite(a)):
                raise ValueError("matrix contains non-finite entries")
            return _dense_factor(a.copy(), pivot_rtol)
    floor = _band_floor(band, pivot_rtol)
    n = len(band[1])
    if n % 2 == 0 or n == 1 or not _own_mirror(band):
        return _band_factor(tuple(d.tolist() for d in band), floor)
    m = n // 2
    sub, diag, sup = band[0][:m].tolist(), band[1][: m + 1].tolist(), band[2][: m + 1].tolist()
    even = (sub[: m - 1] + [sub[m - 1] + sup[m]], diag, sup[:m])
    odd = (sub[: m - 1], diag[:m], sup[: m - 1])
    return ParityLuFactorization(m, floor, lambda parity: _band_factor((even, odd)[parity], floor))


def _pair_band(system: BandBorder) -> bool:
    """Whether ``system`` has ACOK's augmented shape: ``kl = ku = 2``, one border, and the first unknown of each of an odd number (3 or more) of pairs visible."""
    nb = system.band.shape[0]
    return (
        system.kl == system.ku == 2 and system.k == 1 and nb % 4 == 2 and nb > 2
        and np.array_equal(system.outer, np.arange(0, nb, 2))
    )


def _pair_parity_factor(system: BandBorder, pivot_rtol: float) -> ParityLuFactorization:
    """ACOK's augmented system, its own mirror under the reversal of its pairs, as its parity blocks (``ParityLuFactorization``).

    Each block is built on first use (``_pair_block``) and factored by
    ``_bordered_factor`` on the whole system's floors.
    """
    with np.errstate(over="ignore"):
        floors = _floors(system, pivot_rtol, np.abs(system.rows), np.abs(system.corner).sum(axis=1))
    return ParityLuFactorization(
        system.band.shape[0] // 4, floors[0],
        lambda parity: _bordered_factor(_pair_block(system, parity), pivot_rtol, floors), system,
    )


def _pair_block(system: BandBorder, parity: int) -> BandBorder:
    """The even (0) or odd (1) block of ACOK's augmented system (``ParityLuFactorization``).

    The even block is pairs ``0 .. m`` with pair ``m``'s offsets +2 (pair
    ``m + 1``) folded onto its offsets -2 (pair ``m - 1``), the border
    column's first ``2m + 2`` entries and the border row folded to ``r_i +
    r_{N - i}``; the odd block is the band of pairs ``0 .. m - 1``.
    """
    m = system.band.shape[0] // 4
    if parity:
        return BandBorder(band=system.band[: 2 * m], kl=2)
    band = system.band[: 2 * m + 2].copy()
    band[2 * m :, 0] += system.band[2 * m : 2 * m + 2, 4]
    rows = system.rows.reshape(-1, 2)
    folded = rows[: m + 1].copy()
    folded[:m] += rows[: m : -1]
    return BandBorder(band=band, kl=2, cols=system.cols[: 2 * m + 2], rows=folded.reshape(1, -1), corner=system.corner)


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
    """Solve ``A x = rhs`` for one right-hand side, given ``fact = lu_factor(A)``.

    ``rhs`` is a vector of the system's order; anything else (a matrix of
    stacked right-hand sides included) raises ``ValueError``.  Raises
    ``SingularMatrixError`` if the factorization was flagged singular.  A
    ``ParityLuFactorization`` solves an exactly even or odd ``rhs`` (by
    value) on its block alone and any other on both (``_parity_solves``),
    which is exactly reflection-equivariant; it raises only if a block it
    uses is flagged singular.  Any other factorization, bordered ones
    whatever their band, solves once, top-down.  That includes an own-mirror
    band of even order, which no AC/CH grid has (their node counts are odd),
    and ACOK's augmented system with a border added (pseudo-arclength).
    """
    parity = isinstance(fact, ParityLuFactorization)
    if not parity and fact.singular:
        raise SingularMatrixError("singular matrix")
    n = _order(fact)
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs of shape {b.shape} does not match matrix size {n}")
    if parity:
        even, odd = _parity_solves(fact, b)
        return odd if even is None else even if odd is None else even + odd
    if isinstance(fact, BorderedLuFactorization):
        system = fact.system
        if system._all_outer:
            return np.array(_bordered_solve(fact, b.tolist()))
        full = np.zeros(system.band.shape[0] + system.k)
        full[system.outer] = b
        return np.array(_bordered_solve(fact, full.tolist()))[system.outer]
    if isinstance(fact, BandLuFactorization):
        return np.array(_band_solve(fact, b.tolist()))
    return _dense_solve(fact, b)


def _parity_solves(fact: ParityLuFactorization, b: np.ndarray) -> list:
    """The solutions of ``b``'s even and odd parts, each on its block, as full vectors; None for a part ``b`` lacks.

    ``b`` exactly even (odd) by value is its own even (odd) part, and its
    other part is None.  Otherwise the parts are ``(b + P b)/2`` and
    ``(b - P b)/2``: IEEE addition commutes and negation is exact, so ``P b``
    has exactly the same even part and the negated odd part, and its
    solution is exactly the mirrored one.  Raises ``SingularMatrixError`` if
    a block it solves on is flagged singular.
    """
    m = fact.half
    rev = b[::-1]
    if (b == rev).all():
        parts = [b, None]
    elif (b == -rev).all():
        parts = [None, b]
    else:
        parts = [0.5 * (b + rev), 0.5 * (b - rev)]
    for parity, part in enumerate(parts):
        if part is None:
            continue
        block = fact.block(parity)
        if block.singular:
            raise SingularMatrixError("singular matrix")
        half = part[: m + 1 - parity].tolist()
        if fact.pairs is None:
            half = np.array(_band_solve(block, half))
        else:
            # The block's unknowns are the pairs (v_i, u_i), then s on the
            # even side; the right-hand side sits on the v-rows.
            rhs = [0.0] * (2 * len(half) + 1 - parity)
            rhs[0 : 2 * len(half) : 2] = half
            half = np.array(_bordered_solve(block, rhs)[0 : 2 * len(half) : 2])
        parts[parity] = np.concatenate((half, half[-2::-1]) if parity == 0 else (half, [0.0], -half[::-1]))
    return parts


def _order(fact: Factorization) -> int:
    """Size of the (visible) system a factorization solves."""
    if isinstance(fact, ParityLuFactorization):
        return 2 * fact.half + 1
    return len(fact.system) if isinstance(fact, BorderedLuFactorization) else len(_pivots(fact))


def _dense_solve(fact: LuFactorization, b: np.ndarray) -> np.ndarray:
    """Forward and back substitution through the packed dense factors.

    ``x`` is a column, so each ``@`` is a matrix-vector product: a 1-D ``@``
    can take another BLAS kernel, which moves the last bits.
    """
    a = fact.packed
    n = a.shape[0]
    x = b[fact.perm].reshape(n, 1)
    # Forward substitution (unit lower triangle).
    for i in range(1, n):
        x[i] -= a[i, :i] @ x[:i]
    # Back substitution.
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= a[i, i + 1 :] @ x[i + 1 :]
        x[i] /= a[i, i]
    return x[:, 0]


def _pivots(fact: Factorization):
    """The diagonal of ``U`` (the band's, for a bordered factorization)."""
    if isinstance(fact, LuFactorization):  # a Schur block's ``packed`` is a list
        return [row[i] for i, row in enumerate(fact.packed)]
    return fact.pivots


def _sign_from_fact(fact: Factorization) -> int:
    """Permutation parity times the product of pivot signs (0 if flagged).

    A bordered factorization also multiplies in its Schur block's det sign
    and the det sign of the block its visible system eliminates; a parity
    one is the product of its two blocks' signs (times ACOK's hidden one).
    """
    if isinstance(fact, ParityLuFactorization):
        sign = _sign_from_fact(fact.block(0)) * _sign_from_fact(fact.block(1))
        return sign if fact.pairs is None else sign * fact.pairs.hidden_sign
    if fact.singular:
        return 0
    negatives = len([p for p in _pivots(fact) if p < 0.0])
    sign = fact.perm_sign * (-1 if negatives % 2 else 1)
    if isinstance(fact, BorderedLuFactorization):
        sign *= _sign_from_fact(fact.schur) * fact.system.hidden_sign
    return sign


def det_sign(fact: Factorization) -> int:
    """Sign of det(A) as -1, 0 or +1, given ``fact = lu_factor(A, pivot_rtol)``.

    A result of 0 means ``fact`` is flagged singular: some pivot fell on or
    below the floor ``pivot_rtol`` set, i.e. the matrix is singular *to
    within that threshold*.
    """
    return _sign_from_fact(fact)


def log_abs_det(fact: Factorization) -> float:
    """``log|det|`` of the factored system, read off ``fact``'s pivots.

    The sum of ``log|pivot|`` over the pivots; a bordered factorization
    adds its Schur block's (a boosted band pivot enters as boosted, and the
    boost's border takes it back out there).  For a ``BandBorder`` that
    hides a block (``outer``), this is ``log|det|`` of the full matrix: the
    hidden block's ``log|det|`` more than the visible system's.  A parity
    factorization sums its two blocks'.  ``-inf`` where ``det_sign`` gives 0.
    """
    if isinstance(fact, ParityLuFactorization):
        return log_abs_det(fact.block(0)) + log_abs_det(fact.block(1))
    if fact.singular:
        return -math.inf
    total = float(np.sum(np.log(np.abs(_pivots(fact)))))
    if isinstance(fact, BorderedLuFactorization):
        total += log_abs_det(fact.schur)
    return total


def _plain_tridiagonal(system: BandBorder) -> bool:
    """Whether ``lu_factor`` factors ``system`` by ``_band_factor`` alone: a tridiagonal band, no borders."""
    return system.kl == system.ku == 1 and system.k == 0 and system._all_outer


def _takes_pass(system: BandBorder) -> bool:
    """Whether a pass takes ``system``: a plain tridiagonal band, or ``kl`` or ``ku`` is 2 (and neither more)."""
    return _plain_tridiagonal(system) or max(system.kl, system.ku) == 2


def pass_size(system: BandBorder, count: int) -> int:
    """Systems per ``band_det_pass`` for ``count`` systems shaped like ``system``; 0: factor them one at a time.

    A pass pays numpy's per-call cost at every elimination step whatever it
    holds, so it is taken only for a band it takes (``_takes_pass``) and
    only if each pass holds at least its minimum: ``MIN_TRIDIAGONAL_PASS_SYSTEMS``
    for a plain tridiagonal band, ``MIN_PASS_SYSTEMS`` for one ``_band_lu``
    factors.  So the choice rests on the band's width and the number of
    systems alone.  Its working arrays take ``PASS_BYTES`` at most; the
    systems are split evenly over as few passes as that allows.
    """
    nb, k = system.band.shape[0], system.k
    if _plain_tridiagonal(system):
        minimum, per_system = MIN_TRIDIAGONAL_PASS_SYSTEMS, 8 * 6 * (nb + 1)
    else:
        minimum, per_system = MIN_PASS_SYSTEMS, 8 * ((nb + 4) * (5 + k) + k * nb)
    capacity = PASS_BYTES // per_system
    if not _takes_pass(system) or min(capacity, count) < minimum:
        return 0
    passes = math.ceil(count / capacity)
    return math.ceil(count / passes)


def _tridiagonal_det_pass(systems: Iterable[BandBorder], nb: int, count: int) -> list:
    """``band_det_pass`` for plain tridiagonal bands of order ``nb``: ``_band_factor``'s steps, vectorized.

    With ``pivot_rtol = 0`` the floor is 0, so the only pivot flagged is an
    exact zero, and up to the first one the pass runs ``_band_factor``'s
    operations in its order on every system: a zero pivot is then the
    scalar kernel's first one too, and the system's result is ``(0, -inf)``
    whatever the pass computes after it.  Each row sum of magnitudes is
    ``_band_floor``'s, in its order, so a system whose sums are not all
    finite (``lu_factor`` raises for it) comes back None.  Each
    ``log|det|`` is a pairwise sum over one row of a C-contiguous array, as
    ``log_abs_det`` sums one system's pivots.
    """
    # band[i, :, s]: sub-, main and superdiagonal entry of row i of system
    # s, zero outside the matrix; one zero row below.  With the magnitudes
    # below the diagonal, the pivots and their copy by system: six floats a
    # row (``pass_size``).
    band = np.zeros((nb + 1, 3, count))
    for s, system in enumerate(systems):
        if not _plain_tridiagonal(system) or system.band.shape[0] != nb:
            raise ValueError("the systems of one pass must share their band's shape and their borders' number")
        band[:nb, :, s] = system.band
    band[0, 0] = band[nb - 1, 2] = 0.0
    below_mag = np.abs(band[:, 0])
    pivots = np.empty((nb, count))
    swapped = np.zeros((nb, count), dtype=bool)
    # state: row k's running diagonal (piv) and superdiagonal (u) entries,
    # then row k + 1's sub- and main diagonal entries.  Read as 2 x 2, it
    # is [[piv, u], [below, dn]]; an interchange reverses its rows.
    state = np.empty((4, count))
    pair = state.reshape(2, 2, count)
    piv, u, incoming = state[0], state[1], state[2:]
    state[:2] = band[0, 1:]
    mag, prod = np.empty(count), np.empty(count)
    # Overflow leaves a system unusable, and after a zero pivot its values
    # are not used.
    with np.errstate(all="ignore"):
        sums = below_mag[:nb] + np.abs(band[:nb, 2])
        sums += np.abs(band[:nb, 1])
        usable = np.isfinite(sums).all(axis=0)
        for k in range(nb - 1):
            swap = swapped[k]
            np.greater(below_mag[k + 1], np.abs(piv, out=mag), out=swap)
            incoming[...] = band[k + 1, :2]
            # No interchange: pivot piv, multiplier below / piv, and row k+1's
            # diagonal dn - mult * u.  An interchange: pivot below,
            # multiplier piv / below, diagonal u - mult * dn, and row k+1's
            # superdiagonal becomes fill-in, leaving 0.0 - mult * un.
            (pivot, y), (num, x) = np.where(swap, pair[::-1], pair)
            pivots[k] = pivot
            mult = np.divide(num, pivot)
            np.subtract(x, np.multiply(mult, y, out=prod), out=piv)
            un = band[k + 1, 2]
            np.multiply(mult, un, out=prod)
            np.copyto(u, un)
            np.subtract(0.0, prod, out=u, where=swap)
        pivots[nb - 1] = piv
        by_system = np.ascontiguousarray(pivots.T)
        singular = (by_system == 0.0).any(axis=1)
        negatives = np.count_nonzero(by_system < 0.0, axis=1) + np.count_nonzero(swapped, axis=0)
        logs = np.log(np.abs(by_system, out=by_system), out=by_system).sum(axis=1)
    return [
        None if not ok else (0, -math.inf) if zero else (-1 if neg % 2 else 1, log)
        for ok, zero, neg, log in zip(usable.tolist(), singular.tolist(), negatives.tolist(), logs.tolist())
    ]


def _pass_checks(work: np.ndarray, rows: np.ndarray, corners: list) -> tuple:
    """``(usable, boost_floor)`` per system of a pass, from its input before the zeros outside ``A`` are set.

    ``_bordered_factor`` raises if a row sum of the full matrix's magnitudes
    is not finite, and boosts a band pivot on or below ``_BOOST_RTOL`` times
    the band's largest row sum.  Summed here in another order, the sums can
    differ in their last bits, so a system is usable only where that cannot
    matter: every sum far below overflow.  The floor returned is raised by
    a relative 1e-9, far more than those bits, so a pivot above it is above
    ``_bordered_factor``'s too.
    """
    nb, count, k = work.shape[0] - 4, work.shape[2], rows.shape[0]
    sums = np.zeros((nb, count))
    for c in range(5):
        sums += np.abs(work[:nb, c])
    boost_floor = (1.0 + 1e-9) * (_BOOST_RTOL * sums.max(axis=0, initial=0.0))
    for c in range(5, 5 + k):  # the full matrix's rows: the borders' columns too
        sums += np.abs(work[:nb, c])
    border_sums = np.abs(rows).sum(axis=1) + np.abs(np.reshape(corners, (count, k, k))).sum(axis=2).T
    usable = (sums.max(axis=0, initial=0.0) < 1e300) & (border_sums.max(axis=0, initial=0.0) < 1e300)
    return usable, boost_floor


def band_det_pass(systems: Iterable[BandBorder], count: int) -> list:
    """``(det_sign, log_abs_det)`` at ``pivot_rtol = 0`` of each of ``count`` systems, factored together.

    The systems share ``kl``, ``ku`` (one of them 2, or both 1 with no
    borders), the band's order and the number of borders; each is copied
    into the pass's array as it is drawn from ``systems``, so none has to
    be kept.  Plain tridiagonal bands go through ``_tridiagonal_det_pass``,
    the whole band's ``_band_factor`` (module docstring).  Any other pass runs
    ``_band_lu``'s operations in its order, vectorized over the systems:
    the window holds three rows of five band columns plus the border
    columns, so the borders' forward elimination is the factorization's
    own row operations, with ``_band_lu_solve``'s skips; ``A^-1 cols`` is
    then back-substituted over all systems, each Schur block goes through
    ``_schur_factor``, and each ``log|det|`` is summed as ``log_abs_det``
    sums it.  So every result is the scalar path's bit for bit.  A system
    that path would boost a band pivot of, or raise on for a non-finite
    entry, comes back as None, to be factored one at a time; so does one
    whose row sums or pivots are too close to that for the pass to tell
    (``_pass_checks``).
    """
    systems = iter(systems)
    first = next(systems)
    nb, k, kl, ku = first.band.shape[0], first.k, first.kl, first.ku
    if not _takes_pass(first):
        raise ValueError(f"a pass takes plain tridiagonal bands and bands with kl or ku = 2 and neither above, "
                         f"got kl={kl}, ku={ku} with {k} borders")
    if _plain_tridiagonal(first):
        return _tridiagonal_det_pass(itertools.chain([first], systems), nb, count)
    # work[i, c, s]: row i of system s, band columns i - 2 .. i + 2, then its
    # borders; four zero rows below.
    work = np.zeros((nb + 4, 5 + k, count))
    rows = np.empty((k, nb, count))
    corners, hidden = [], []
    for s, system in enumerate(itertools.chain([first], systems)):
        if (system.band.shape[0], system.k, system.kl, system.ku) != (nb, k, kl, ku):
            raise ValueError("the systems of one pass must share their band's shape and their borders' number")
        work[:nb, 2 - kl : 3 + ku, s] = system.band
        work[:nb, 5:, s] = system.cols
        rows[..., s] = system.rows
        corners.append(system.corner.tolist())
        hidden.append(system.hidden_sign)
    usable, boost_floor = _pass_checks(work, rows, corners)
    for i in range(min(2, nb)):  # left of column 0
        work[i, : 2 - i] = 0.0
    for i in range(max(0, nb - 2), nb):  # right of column nb - 1
        work[i, nb + 2 - i : 5] = 0.0

    # window[r] is row j + r: band columns j .. j + 4, then the borders.
    window = np.zeros((3, 5 + k, count))
    window[0, :3], window[1, :4], window[2, :5] = work[0, 2:5], work[1, 1:5], work[2, :5]
    window[:, 5:] = work[:3, 5:]
    top, second, third = window
    column, leads, rest = window[:, 0], window[1:, 0], window[1:, 1:]
    pivot, tail = top[0], top[1:]
    moved, moving = window[:2, :4], window[1:, 1:5]
    border_to, border_from = window[:2, 5:], window[1:, 5:]
    size, saved = np.empty((3, count)), np.empty((5 + k, count))
    mults = np.empty((2, count))
    swapped = np.empty((nb, count), dtype=bool)
    from_second, from_third = np.empty(count, dtype=bool), np.empty(count, dtype=bool)
    keep, nonzero = np.empty((2, 4 + k, count), dtype=bool), np.empty((4 + k, count), dtype=bool)
    lead = keep[:, 0]
    update = np.empty((2, 4 + k, count))
    with np.errstate(all="ignore"):  # a system that would take a boost is dropped below
        for j in range(nb):
            # The first strictly largest entry of column j pivots.
            p = np.abs(column, out=size).argmax(axis=0)
            np.not_equal(p, 0, out=swapped[j])
            np.equal(p, 1, out=from_second)
            np.equal(p, 2, out=from_third)
            np.copyto(saved, top)
            np.copyto(top, second, where=from_second)
            np.copyto(top, third, where=from_third)
            np.copyto(second, saved, where=from_second)
            np.copyto(third, saved, where=from_third)
            # A zero multiplier, and an update by a zero U entry, are skipped:
            # a band entry is updated where its row's lead is nonzero, a
            # border where the multiplier is (as _band_lu_solve does).
            np.divide(leads, pivot, out=mults)
            np.not_equal(leads, 0.0, out=lead)
            keep[:, 1:4] = lead[:, None]
            np.not_equal(mults[:, None], 0.0, out=keep[:, 4:])
            np.not_equal(tail, 0.0, out=nonzero)
            keep &= nonzero
            np.multiply(mults[:, None], tail, out=update)
            np.subtract(rest, update, out=rest, where=keep)
            work[j] = top  # row j was read three steps ago
            np.copyto(moved, moving)
            window[:2, 4] = 0.0
            np.copyto(border_to, border_from)
            third[:] = work[j + 3]
        # Back substitution, A^-1 cols overwriting the border columns.
        update, nonzero = np.empty((4, k, count)), np.empty((4, count), dtype=bool)
        for j in range(nb - 1, -1, -1):
            row = work[j]
            x, tails = row[5:], row[1:5]
            np.not_equal(tails, 0.0, out=nonzero)
            np.multiply(tails[:, None], work[j + 1 : j + 5, 5:], out=update)
            for i in range(4):
                np.subtract(x, update[i], out=x, where=nonzero[i])
            np.divide(x, row[0], out=x)
    pivots, right = work[:nb, 0], work[:nb, 5:]
    usable &= (np.abs(pivots) > boost_floor).all(axis=0) & np.isfinite(right).all(axis=(0, 1))
    negatives = np.count_nonzero(pivots < 0.0, axis=0) + np.count_nonzero(swapped, axis=0)
    out = []
    for s in range(count):
        if not usable[s]:
            out.append(None)
            continue
        schur = _schur_factor(corners[s], rows[..., s].tolist(), right[..., s].T.tolist())
        if schur.singular:  # a zero Schur pivot: the factorization's flag at pivot_rtol = 0
            out.append((0, -math.inf))
            continue
        sign = (-1 if negatives[s] % 2 else 1) * _sign_from_fact(schur) * hidden[s]
        out.append((sign, float(np.sum(np.log(np.abs(pivots[:, s])))) + log_abs_det(schur)))
    return out


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip ``v`` so its first significant entry is positive (deterministic)."""
    thresh = 1e-8 * float(np.max(np.abs(v)))
    for vi in v:
        if abs(vi) > thresh:
            return -v if vi < 0.0 else v
    return v


def null_vector(fact: Factorization) -> np.ndarray:
    """Null mode of a nearly singular matrix, read off its factorization.

    One step of inverse iteration: solve ``A w = v0`` for a fixed seeded unit
    start vector ``v0`` (``default_rng(1790)``), scale ``w`` to unit 2-norm
    and flip it so its first significant entry is positive.  Where ``A`` has
    one eigenvalue far closer to zero than the rest (a simple crossing), that
    step already lands on its eigenvector to rounding.  The start vector is
    the same on every call, so the result is bitwise reproducible.  Raises
    ``SingularMatrixError`` if the factorization was flagged singular.

    A ``ParityLuFactorization`` (the AC/CH Jacobian, or ACOK's augmented
    system, at an even or odd state, as at the constant states where every
    primary bifurcation sits) solves ``v0``'s even and odd parts, each on
    its own block, and keeps
    the solution with the larger sup-norm, the even one on a tie.  Each
    eigenspace of such a band is spanned by even and odd vectors, so a
    simple eigenvalue's eigenvector is exactly even or odd, and it is the
    near-singular block's solve that carries it: the mode has its parity
    exactly, by construction, and so do the offshoots seeded from it.  That
    is the right choice only when a simple eigenvalue crosses: at a double
    crossing either block's solve spans only part of the null space.
    """
    start = np.random.default_rng(1790).standard_normal(_order(fact))
    v0 = start / float(np.linalg.norm(start))
    if isinstance(fact, ParityLuFactorization):
        even, odd = (lu_solve(fact, 0.5 * (v0 + side * v0[::-1])) for side in (1.0, -1.0))
        w = even if np.max(np.abs(even)) >= np.max(np.abs(odd)) else odd
    else:
        w = lu_solve(fact, v0)
    return _fix_sign(w / float(np.linalg.norm(w)))
