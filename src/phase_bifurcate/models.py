"""Spatial discretization and the three steady-state models.

All models live on the interval [-1, 1], discretized with ``n_cells`` equal
cells (so ``n_cells + 1`` vertex unknowns) and homogeneous Neumann boundary
conditions imposed through ghost values reflected across each end node
(second order, folded into the end rows).  A steady state is a vector ``phi``
of nodal values; each model exposes

- ``residual(state, params)``  -- the nonlinear map whose zeros are steady
  states,
- ``linearize(state, params)`` -- its derivative as a ``linalg.BandBorder``,
  the form the continuation factors in O(N): the tridiagonal Jacobian for
  AC/CH, an augmented band-plus-border system for ACOK,
- ``jacobian(state, params)``  -- the same derivative as a dense matrix,
  kept as the oracle for the tests and ``verify``; the engine never builds it,
- ``param_derivative(state, params)`` -- derivative with respect to the
  model's active continuation parameter,
- ``trivial_branches(params)`` -- the spatially constant solution families,
- ``symmetry_center(params)`` -- the constant c with ``F(2c - x) = -F(x)``
  bit for bit (0 for AC, offset-free CH and ACOK's odd form), or None (CH
  with an offset, and ACOK in ``phi``, whose pitchforks branch switching
  maps by the reversal instead),
- ``engine()``, ``phi_of(state)`` and ``residual_norm(r)`` -- the model the
  continuation runs, the phase field of one of its states, and the residual
  norm ``newton_tol`` bounds, in ``phi``'s units.  AC and CH run themselves
  in ``phi``.  ACOK runs ``OddOhtaKawasaki``, the same model in ``u = 2 phi
  - 1``, where both of its symmetries hold bit for bit; the CLI prints
  ``phi = (1 + u)/2``.

The second derivative is discretized with the compact fourth-order (Numerov)
scheme ``L = B^-1 A``: ``A`` is the folded second-difference matrix
(``laplacian_matrix``) and ``B = I + (h^2/12) A`` is built from the same
folded rows.  ``A`` alone lags the continuum eigenvalue ``k^2`` by a
relative ``(kh)^2/12``; ``B^-1 A`` is exact to ``O((kh)^4)``, so the
detected crossings converge to the closed forms at fourth order.  The
models never invert ``B``: every residual is premultiplied by it, which
keeps the AC/CH Jacobians tridiagonal and leaves all zeros, and the sign
of every Jacobian determinant, unchanged (``B`` has positive determinant).
``B`` maps constants to themselves, so constant states and constant
offsets pass through it unchanged.

The models:

``AllenCahn``
    -A phi + B (phi^3 - phi)/eps^2, continued in the interface width eps.
``CahnHilliardSteady``
    The same operator shifted by a constant chemical potential mu0 (the
    spatially reduced steady Cahn-Hilliard problem); continued in eps.
``OhtaKawasaki``
    eps*A phi - B W'(phi)/eps - gamma*(B G B) phi with the double well
    W = 18*(phi^2 - phi)^2 pinned between 0 and 1 and the nonlocal zero-mean
    inverse Laplacian G; continued in the nonlocal strength gamma.  G is
    applied by prefix sums taken outward from the middle node, summed by
    mirror pairs, so that it commutes with the reversal bit for bit
    (``green_apply``); its dense matrix (``green_operator``) exists only
    for the oracles.  The Jacobian is dense, but ``linearize`` hands over
    an O(N) augmented form that solves G's Poisson problem alongside, from
    ``B G B = G - 2c(I - P) - c^2 A`` (see the class).
``OddOhtaKawasaki``
    ACOK in ``u = 2 phi - 1``: ``eps*A u - B (18/eps)(u^3 - u) - gamma*(B G B)
    u``, twice the residual above, with the same Jacobian; odd and
    reflection-equivariant bit for bit, like AC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .linalg import BandBorder, det_sign, lu_factor, lu_solve

__all__ = [
    "GridSpec",
    "ModelParams",
    "laplacian_matrix",
    "laplacian_apply",
    "AllenCahn",
    "CahnHilliardSteady",
    "OhtaKawasaki",
    "OddOhtaKawasaki",
    "CubicRoots",
    "ch_trivial_roots",
    "TrivialBranch",
    "green_apply",
    "green_operator",
    "poisson_neumann_solve",
    "model_by_kind",
]

@dataclass(frozen=True)
class GridSpec:
    """Uniform vertex-centered grid on [-1, 1] with ``n_cells`` cells."""

    n_cells: int

    def __post_init__(self):
        if not isinstance(self.n_cells, int):
            raise TypeError("n_cells must be an int")
        if self.n_cells < 4 or self.n_cells % 2 != 0:
            raise ValueError(f"n_cells must be an even integer >= 4, got {self.n_cells}")

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def h(self) -> float:
        return 2.0 / self.n_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        # (2i - N)/N instead of -1 + i*h: this form is *bitwise* antisymmetric
        # under i -> N - i, which the reflection/negation symmetry guarantees
        # of the models rely on.
        i = np.arange(self.n_nodes, dtype=float)
        x = (2.0 * i - self.n_cells) / self.n_cells
        x.setflags(write=False)
        return x

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid quadrature weights (h/2, h, ..., h, h/2)."""
        w = np.full(self.n_nodes, self.h)
        w[0] = 0.5 * self.h
        w[-1] = 0.5 * self.h
        w.setflags(write=False)
        return w


def _second_difference(values: np.ndarray) -> np.ndarray:
    """``h^2 * A`` applied along axis 0: the unscaled folded second difference.

    ``phi[i+1] + phi[i-1] - 2 phi[i]`` is bitwise reflection-symmetric and
    exactly zero on constants, which the models' symmetry guarantees rely on.
    """
    out = np.empty_like(values)
    out[1:-1] = values[2:] + values[:-2] - 2.0 * values[1:-1]
    out[0] = 2.0 * (values[1] - values[0])
    out[-1] = 2.0 * (values[-2] - values[-1])
    return out


def laplacian_apply(state: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Second-difference Laplacian with folded Neumann ghosts, applied to a vector."""
    phi = np.asarray(state, dtype=float)
    if phi.shape != (grid.n_nodes,):
        raise ValueError(f"state must have shape ({grid.n_nodes},), got {phi.shape}")
    return _second_difference(phi) / (grid.h * grid.h)


def _compact_apply(values: np.ndarray) -> np.ndarray:
    """``B @ values`` for the compact-scheme mass matrix ``B = I + (h^2/12) A``."""
    return values + _second_difference(values) / 12.0


def _compact_band(n_nodes: int) -> np.ndarray:
    """Row-wise band (sub, main, super) of ``B = I + (h^2/12) A``."""
    band = np.empty((n_nodes, 3))
    band[:, 0] = band[:, 2] = 1.0 / 12.0
    band[:, 1] = 5.0 / 6.0
    band[0, 0] = band[-1, 2] = 0.0
    band[0, 2] = band[-1, 0] = 1.0 / 6.0  # folded ghosts double the neighbour
    return band


def _laplacian_band(grid: GridSpec) -> np.ndarray:
    """Row-wise band (sub, main, super) of ``laplacian_matrix``."""
    inv_h2 = 1.0 / (grid.h * grid.h)
    band = np.empty((grid.n_nodes, 3))
    band[:, 0] = band[:, 2] = inv_h2
    band[:, 1] = -2.0 * inv_h2
    band[0, 0] = band[-1, 2] = 0.0
    band[0, 2] = band[-1, 0] = 2.0 * inv_h2
    return band


def _tridiagonal_rows(matrix: np.ndarray, band: np.ndarray) -> np.ndarray:
    """``T @ matrix`` for the tridiagonal ``T`` given by its row-wise band (no BLAS)."""
    out = band[:, 1, None] * matrix
    out[:-1] += band[:-1, 2, None] * matrix[1:]
    out[1:] += band[1:, 0, None] * matrix[:-1]
    return out


def _transposed_band(band: np.ndarray) -> np.ndarray:
    """Row-wise band of the transpose of the tridiagonal given by ``band``."""
    out = np.zeros_like(band)
    out[1:, 0] = band[:-1, 2]
    out[:, 1] = band[:, 1]
    out[:-1, 2] = band[1:, 0]
    return out


@lru_cache(maxsize=32)
def laplacian_matrix(grid: GridSpec) -> np.ndarray:
    """Dense matrix of ``laplacian_apply`` (n_nodes x n_nodes, read-only, cached)."""
    m = BandBorder(band=_laplacian_band(grid), kl=1).to_dense()
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ModelParams:
    """Parameter bundle shared by all models.

    epsilon: interface width (> 0).
    mu0: constant chemical-potential offset (Cahn-Hilliard only).
    gamma: nonlocal interaction strength (Ohta-Kawasaki only).
    """

    epsilon: float
    mu0: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "mu0", "gamma"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass(frozen=True)
class TrivialBranch:
    """A spatially constant solution family, parameterized by the active parameter.

    ``value_of(params)`` returns the constant; ``state_of(params)`` the nodal
    vector.  ``bifurcating`` marks the one branch whose linearization can
    turn singular, and so the only one the detection scan runs on.  The
    others are the wells, linearly stable at every parameter, so their det
    sign never changes: ``compute_diagram`` gives each point of a well its
    start point's.  They are:

    * AC at phi = +-1 and the CH outer roots: ``J = -A + c B`` with
      ``c = (3 phi^2 - 1)/eps^2 > 0``.  ``A`` is self-adjoint in a
      diagonal weight with eigenvalues ``-alpha in [-4/h^2, 0]``, and
      ``B = I + h^2 A/12`` commutes with it, so every eigenvalue
      ``alpha + c (1 - h^2 alpha/12)`` is positive.
    * ACOK at phi = 0, 1: each cosine mode of ``A`` (eigenvalue
      ``-alpha``), ``B`` (``b``) and ``G`` (``g``) gives ``J`` the
      eigenvalue ``-(eps alpha + 36 b/eps + gamma b^2 g) < 0``.
    """

    label: str
    bifurcating: bool
    value_of: Callable[[ModelParams], float]

    def state_of(self, params: ModelParams, grid: GridSpec) -> np.ndarray:
        return np.full(grid.n_nodes, self.value_of(params))


class CubicRoots(NamedTuple):
    """Real roots of the constant-state cubic, sorted ascending.

    ``middle_index`` is the position of the middle root when three distinct
    real roots exist, else None (double/single root cases).
    """

    values: tuple[float, ...]
    middle_index: Optional[int]


def _polish_root(c: float, x: float) -> float:
    # A couple of Newton steps on f(x) = x^3 - x - c; the trig closed form is
    # already accurate to ~1e-15, this just pins the residual to rounding.
    for _ in range(4):
        f = x * x * x - x - c
        df = 3.0 * x * x - 1.0
        if f == 0.0 or df == 0.0:
            break
        step = f / df
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def ch_trivial_roots(params: ModelParams) -> CubicRoots:
    """Real solutions of ``phi^3 - phi = mu0 * epsilon^2``, ascending.

    Three distinct real roots exist iff ``4 - 27 c^2 > 0`` with
    ``c = mu0 * epsilon^2`` (i.e. |c| < 2/(3*sqrt(3)) ~ 0.3849); the middle
    one then carries all bifurcations and is flagged via ``middle_index``.
    At the discriminant boundary the double root is reported once and
    ``middle_index`` is None.
    """
    c = float(params.mu0) * float(params.epsilon) ** 2
    disc = 4.0 - 27.0 * c * c
    if c == 0.0:
        return CubicRoots((-1.0, 0.0, 1.0), 1)
    if disc > 1e-12:
        # Three real roots via the trigonometric form for the depressed cubic.
        theta = math.acos(0.5 * c * math.sqrt(27.0))
        r = 2.0 / math.sqrt(3.0)
        roots = sorted(_polish_root(c, r * math.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0)) for k in range(3))
        return CubicRoots(tuple(roots), 1)
    if disc < -1e-12:
        # One real root (Cardano, numerically stable branch).
        s = math.copysign(1.0, c)
        ac = abs(c)
        u = (27.0 * ac + math.sqrt(729.0 * ac * ac - 108.0)) / 2.0
        t = u ** (1.0 / 3.0)
        root = s * (t + 3.0 / t) / 3.0
        return CubicRoots((_polish_root(c, root),), None)
    # Discriminant boundary: a double root and a simple root.
    s = math.copysign(1.0, c)
    double = -s / math.sqrt(3.0)
    simple = 2.0 * s / math.sqrt(3.0)
    return CubicRoots(tuple(sorted((_polish_root(c, double), _polish_root(c, simple)))), None)


def _cube(phi: np.ndarray) -> np.ndarray:
    # phi*phi*phi rather than phi**3: exact sign symmetry under negation.
    return phi * phi * phi


class _ModelBase:
    kind = "?"
    active_parameter = "?"

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._lap = _laplacian_band(grid)
        self._compact = _compact_band(grid.n_nodes)

    def with_param(self, params: ModelParams, value: float) -> ModelParams:
        """Copy of ``params`` with the active continuation parameter replaced."""
        kw = {"epsilon": params.epsilon, "mu0": params.mu0, "gamma": params.gamma}
        kw[self.active_parameter] = float(value)
        return ModelParams(**kw)

    def active_value(self, params: ModelParams) -> float:
        return getattr(params, self.active_parameter)

    def trivial_states(self, params: ModelParams) -> list[np.ndarray]:
        """Nodal vectors of every branch of ``trivial_branches(params)``."""
        return [b.state_of(params, self.grid) for b in self.trivial_branches(params)]

    def symmetry_center(self, params: ModelParams) -> Optional[float]:
        """The constant c with ``residual(2c - x) == -residual(x)`` bit for bit at ``params``, or None.

        Branch switching takes the ``-`` offshoot of a pitchfork from the
        constant state c as the image ``2c - x`` of its ``+`` offshoot.
        Without a center, an exactly odd mode's ``-`` offshoot is the
        reversal of the ``+`` one (``continuation._pitchfork_image``).
        """
        return None

    def engine(self):
        """The model the continuation runs: this one, whose state is ``phi`` (ACOK: its odd form)."""
        return self

    def phi_of(self, state: np.ndarray) -> np.ndarray:
        """The phase field of a state of this model: the state itself (ACOK's odd form: ``(1 + u)/2``)."""
        return state

    def residual_norm(self, residual: np.ndarray) -> float:
        """The sup-norm of ``residual`` in ``phi``'s units: the one ``newton_tol`` bounds (ACOK's odd form: half its own)."""
        return float(np.max(np.abs(residual)))

    def _band(self, lap_scale: float, scale: np.ndarray) -> np.ndarray:
        """Row-wise band of ``lap_scale * A + B diag(scale)``."""
        shifted = np.zeros((scale.size, 3))
        shifted[1:, 0] = scale[:-1]
        shifted[:, 1] = scale
        shifted[:-1, 2] = scale[1:]
        return lap_scale * self._lap + self._compact * shifted

    def _require_state(self, state) -> np.ndarray:
        phi = np.asarray(state, dtype=float)
        if phi.shape != (self.grid.n_nodes,):
            raise ValueError(f"state must have shape ({self.grid.n_nodes},), got {phi.shape}")
        return phi


class AllenCahn(_ModelBase):
    """Steady Allen-Cahn operator, continued in the interface width epsilon.

    Residual: -A phi + B (phi^3 - phi)/eps^2 - c (the compact scheme, see the
    module docstring) with the constant offset ``c = _offset(params)``, 0 here
    (so mu0 is ignored); ``B`` maps constants to themselves, so ``c`` needs
    no ``B``.  The Jacobian -A + B diag(3 phi^2 - 1)/eps^2 stays tridiagonal.
    """

    kind = "ac"
    active_parameter = "epsilon"

    def _offset(self, params: ModelParams) -> float:
        return 0.0

    def symmetry_center(self, params: ModelParams) -> Optional[float]:
        """0.0 without an offset (``_cube`` and the linear stencils are odd bit for bit), else None."""
        return 0.0 if self._offset(params) == 0.0 else None

    def residual(self, state, params: ModelParams) -> np.ndarray:
        phi = self._require_state(state)
        inv_e2 = 1.0 / (params.epsilon * params.epsilon)
        out = -laplacian_apply(phi, self.grid) + _compact_apply(inv_e2 * (_cube(phi) - phi))
        offset = self._offset(params)
        if offset != 0.0:
            out -= offset
        return out

    def linearize(self, state, params: ModelParams) -> BandBorder:
        """The tridiagonal Jacobian as a ``BandBorder`` without borders."""
        phi = self._require_state(state)
        inv_e2 = 1.0 / (params.epsilon * params.epsilon)
        return BandBorder(band=self._band(-1.0, inv_e2 * (3.0 * phi * phi - 1.0)), kl=1)

    def jacobian(self, state, params: ModelParams) -> np.ndarray:
        return self.linearize(state, params).to_dense()

    def param_derivative(self, state, params: ModelParams) -> np.ndarray:
        phi = self._require_state(state)
        return _compact_apply((-2.0 / params.epsilon**3) * (_cube(phi) - phi))

    def trivial_branches(self, params: ModelParams) -> list[TrivialBranch]:
        return [
            TrivialBranch("phi=-1", False, lambda p: -1.0),
            TrivialBranch("phi=0", True, lambda p: 0.0),
            TrivialBranch("phi=+1", False, lambda p: 1.0),
        ]


class CahnHilliardSteady(AllenCahn):
    """Spatially reduced steady Cahn-Hilliard: Allen-Cahn offset by mu0.

    Residual: -A phi + B (phi^3 - phi)/eps^2 - mu0, continued in epsilon.
    The Jacobian does not depend on mu0, so the bifurcation structure matches
    Allen-Cahn's around the constant states, which move to the roots of
    ``phi^3 - phi = mu0 * eps^2``.  The residual, Jacobian and parameter
    derivative are inherited, not overridden, so code that wraps them on
    each class defining them sees every evaluation once.
    """

    kind = "ch"

    def _offset(self, params: ModelParams) -> float:
        return params.mu0

    def trivial_branches(self, params: ModelParams) -> list[TrivialBranch]:
        roots = ch_trivial_roots(params)
        if roots.middle_index is None:
            raise ValueError(
                "constant-state cubic does not have three distinct real roots at "
                f"mu0={params.mu0}, epsilon={params.epsilon} (|mu0*eps^2| >= 2/(3*sqrt(3))); "
                "trivial branches are only defined inside the three-root window"
            )

        def root_fn(position: int) -> Callable[[ModelParams], float]:
            def value(p: ModelParams) -> float:
                r = ch_trivial_roots(p)
                if r.middle_index is None:
                    raise ValueError(
                        f"left the three-real-root window at mu0={p.mu0}, epsilon={p.epsilon}"
                    )
                return r.values[position]

            return value

        if params.mu0 == 0.0:
            # Roots are exactly -1, 0, +1 for every epsilon; use the same
            # labels as the plain double-well model so diagrams coincide
            # byte-for-byte in the degenerate case.
            labels = ("phi=-1", "phi=0", "phi=+1")
        else:
            labels = ("lowest-root", "middle-root", "highest-root")
        return [TrivialBranch(labels[i], i == roots.middle_index, root_fn(i)) for i in range(3)]


def green_apply(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """``G f`` along axis 0: the zero-mean inverse of ``-A`` by prefix sums, mirror-summed.

    ``u = G f`` solves ``-A u = f - mean(f)`` with zero trapezoidal mean.
    Row by row the folded ``-A u = g`` reads ``u[i+1] - u[i] = -h F_i``
    with the flux ``F_i = sum_{j<=i} w_j g_j = -sum_{j>i} w_j g_j`` (``g``
    has zero mean), so the fluxes are prefix sums and ``u`` is a second
    one.  Every sum is taken so that the reversal ``R`` (node ``i`` to
    ``N - i``) maps it onto its mirror term for term, with ``m = N/2``:

    * ``f[m]`` is subtracted first, so constants give exactly 0;
    * each trapezoid mean sums ``w_i (v_i + v_{N-i})`` over the pairs
      ``i < m``, then adds ``w_m v_m``;
    * the fluxes left of node ``m`` are summed from the left end, those
      right of it from the right end;
    * the potential is built outward from ``u[m] = 0`` both ways.

    So ``green_apply(R f) == R green_apply(f)`` bit for bit, and, every
    operation being linear with IEEE's sign-symmetric rounding,
    ``green_apply(-f) == -green_apply(f)`` too.  Only elementwise
    operations, ``cumsum`` and ``add.reduce``: no BLAS, so the bits do not
    depend on the CPU kernel.
    """
    f = np.asarray(f, dtype=float)
    m = grid.n_cells // 2
    w = grid.trapezoid_weights.reshape((-1,) + (1,) * (f.ndim - 1))
    g = f - f[m]
    g -= _pair_mean(g, w, m)
    g *= w
    # Row 0 runs from node 0 up to m - 1, row 1 from node N down to m + 1:
    # their prefix sums are F_0 .. F_{m-1} and -F_{N-1} .. -F_m, and the
    # prefix sums of those, taken from node m outward, the potential.
    pairs = np.empty((2, m) + f.shape[1:])
    pairs[0], pairs[1] = g[:m], g[:m:-1]
    np.add.accumulate(pairs, axis=1, out=pairs)
    pairs *= grid.h
    np.add.accumulate(pairs[:, ::-1], axis=1, out=pairs[:, ::-1])
    u = np.empty_like(g)
    u[:m], u[m], u[:m:-1] = pairs[0], 0.0, pairs[1]
    u -= _pair_mean(u, w, m)
    return u


def _pair_mean(v: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """Trapezoidal mean of ``v`` along axis 0, summed by mirror pairs (``green_apply``)."""
    return (np.add.reduce(w[:m] * (v[:m] + v[:m:-1]), axis=0) + w[m] * v[m]) / 2.0


@lru_cache(maxsize=8)
def green_operator(grid: GridSpec) -> np.ndarray:
    """Dense matrix of ``green_apply`` (n_nodes x n_nodes, read-only, cached).

    Built as ``green_apply`` of the identity, for the oracles only: the
    dense ``jacobian``, ``verify`` and the tests.  A final rank-one
    correction spreads each row's rounding residue over the row, so that
    ``max|matrix @ ones|`` stays at rounding level.
    """
    n = grid.n_nodes
    matrix = green_apply(np.eye(n), grid)
    # Exact constant annihilation: distribute each row's residual row-sum.
    matrix -= np.outer(matrix @ np.ones(n), np.full(n, 1.0 / n))
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=8)
def _neumann_system(grid: GridSpec):
    """``K = [[A, 1], [w^T, 0]]``: ``(K, its factorization, its det sign)``.

    ``green_apply`` is ``K``'s inverse on zero-mean data: ``-A G = I - 1 w^T / 2``.
    """
    n = grid.n_nodes
    system = BandBorder(
        band=_laplacian_band(grid), kl=1, cols=np.ones((n, 1)),
        rows=grid.trapezoid_weights[None, :], corner=np.zeros((1, 1)),
    )
    fact = lu_factor(system)
    return system, fact, det_sign(fact)


def poisson_neumann_solve(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Solve the discrete Neumann problem ``u'' = f`` with zero-mean data.

    Uses the same folded second-difference operator as the models, bordered
    by the trapezoid-mean constraint to pin the additive constant, so the
    result is directly comparable with ``green_apply`` applied to ``-f``.

    Raises ``ValueError`` ("Neumann problem unsolvable") when the trapezoidal
    mean of ``f`` exceeds 1e-10 in magnitude, since no solution exists then.
    """
    rhs = np.asarray(f, dtype=float)
    if rhs.shape != (grid.n_nodes,):
        raise ValueError(f"f must have shape ({grid.n_nodes},), got {rhs.shape}")
    w = grid.trapezoid_weights
    mean = float(w @ rhs) / 2.0
    if abs(mean) > 1e-10:
        raise ValueError(f"Neumann problem unsolvable: right-hand side has mean {mean:.3e} (|mean| > 1e-10)")
    _, fact, _ = _neumann_system(grid)
    return lu_solve(fact, np.append(rhs, 0.0))[:-1]


class OhtaKawasaki(_ModelBase):
    """Steady Allen-Cahn/Ohta-Kawasaki operator, continued in gamma.

    Residual: eps*A phi - B (36/eps) (2 phi^3 - 3 phi^2 + phi) - gamma*(B G B) phi
    with the double well W(phi) = 18*(phi^2 - phi)^2 (wells at 0 and 1) and
    the zero-mean nonlocal operator G, applied by the prefix sums of
    ``green_apply``; the model holds no N x N array.
    ``G`` inverts ``-A`` on zero-mean data, so ``G B`` inverts the compact
    ``-B^-1 A`` and the premultiplied nonlocal term is ``B G B``.  Note the
    leading Laplacian enters with a +eps factor (gradient-flow sign), unlike
    the eps^2-divided Allen-Cahn form.

    This class takes the phase field ``phi``, the CLI's coordinate.  Its
    symmetry ``phi -> 1 - phi`` holds only to rounding (``1 - phi``
    rounds), so it has no ``symmetry_center``; the continuation runs on
    ``engine()``, the same model in ``u = 2 phi - 1``
    (``OddOhtaKawasaki``), where it is exact.  Both forms have the same
    Jacobian.

    The Jacobian ``J = T - gamma B G B`` with the tridiagonal
    ``T = eps A - B diag(W''/eps)`` is dense, but ``linearize`` never forms
    it.  With ``c = h^2/12`` and ``P = 1 w^T / 2``, ``B = I + c A``,
    ``A G = G A = -(I - P)`` and ``A P = 0``, so ``B G B = G - 2c(I - P)
    - c^2 A`` exactly, and ``J v = r`` is the augmented O(N) system
    ``(T + 2c gamma I + c^2 gamma A) v - gamma u + 2c gamma s 1 = r``,
    ``v + A u + s 1 = 0``, ``w^T u = 0`` in ``(v, u, s)``: the last two
    give ``u = G v`` and ``s 1 = -P v``.  Interleaved as ``(v_i, u_i)``
    with ``s`` as one border, it is a band with two sub- and
    superdiagonals.  ``J`` is the Schur complement of the Neumann block
    ``K = [[A, 1], [w^T, 0]]`` in it, so ``det_sign(J) = det_sign(M)
    det_sign(K)`` for the augmented matrix ``M``, with ``K``'s sign fixed
    per grid (``hidden_sign``).  At a state whose ``W''`` is mirror
    symmetric, ``M`` is its own mirror under the reversal of the node
    pairs, and ``linalg.lu_factor`` factors it as its two parity blocks.
    The dense ``jacobian`` oracle still applies ``B G B`` through ``B``
    and ``G``: an independent route.
    """

    kind = "acok"
    active_parameter = "gamma"

    def __init__(self, grid: GridSpec):
        super().__init__(grid)
        self._poisson, _, self._poisson_sign = _neumann_system(grid)

    def residual(self, state, params: ModelParams) -> np.ndarray:
        x = self._require_state(state)
        eps = params.epsilon
        return (
            eps * laplacian_apply(x, self.grid)
            - _compact_apply(self._well_slope(x) / eps)
            - params.gamma * self._nonlocal(x)
        )

    def _well_slope(self, phi: np.ndarray) -> np.ndarray:
        """``W'(phi) = 36 (2 phi^3 - 3 phi^2 + phi)``."""
        return 36.0 * (2.0 * _cube(phi) - 3.0 * (phi * phi) + phi)

    def _well_curvature(self, phi: np.ndarray, eps: float) -> np.ndarray:
        """``-W''(phi)/eps``: the diagonal scale of ``linearize``'s local band."""
        return (-36.0 / eps) * (6.0 * phi * phi - 6.0 * phi + 1.0)

    def engine(self) -> "OddOhtaKawasaki":
        return OddOhtaKawasaki(self.grid)

    def linearize(self, state, params: ModelParams) -> BandBorder:
        """The augmented band-plus-border form of the Jacobian (class docstring).

        v-row ``i`` is band row ``2i``, with nonzeros at offsets ``-2, 0, +1,
        +2``; u-row ``i`` is band row ``2i + 1``, at ``-2, -1, 0, +2``.
        """
        x = self._require_state(state)
        n, gamma, eps = self.grid.n_nodes, params.gamma, params.epsilon
        c = self.grid.h * self.grid.h / 12.0
        band = np.zeros((2 * n, 5))
        # Band column k holds the unknown at offset k - 2.
        band[0::2, 0::2] = self._band(eps, self._well_curvature(x, eps)) + (c * c * gamma) * self._lap
        band[0::2, 2] += 2.0 * c * gamma
        band[0::2, 3] = -gamma
        band[1::2, 1] = 1.0
        band[1::2, 0::2] = self._poisson.band
        cols = np.ones((2 * n, 1))
        cols[0::2, 0] = 2.0 * c * gamma
        rows = np.zeros((1, 2 * n))
        rows[0, 1::2] = self._poisson.rows[0]
        return BandBorder(
            band=band, kl=2, cols=cols, rows=rows, corner=np.zeros((1, 1)),
            outer=np.arange(0, 2 * n, 2), hidden_sign=self._poisson_sign,
        )

    def jacobian(self, state, params: ModelParams) -> np.ndarray:
        x = self._require_state(state)
        eps = params.epsilon
        local = BandBorder(band=self._band(eps, self._well_curvature(x, eps)), kl=1).to_dense()
        bg = _tridiagonal_rows(green_operator(self.grid), self._compact)
        # (B G) B = (B^T (B G)^T)^T, and B^T's band is B's with sub and super swapped.
        bgb = _tridiagonal_rows(bg.T, _transposed_band(self._compact)).T
        return local - params.gamma * bgb

    def param_derivative(self, state, params: ModelParams) -> np.ndarray:
        return -self._nonlocal(self._require_state(state))

    def _nonlocal(self, x: np.ndarray) -> np.ndarray:
        # (B G B) x through the stencils: B maps constants to themselves
        # exactly, so constants meet G itself and give exactly 0.
        return _compact_apply(green_apply(_compact_apply(x), self.grid))

    def trivial_branches(self, params: ModelParams) -> list[TrivialBranch]:
        return [
            TrivialBranch("phi=0", False, lambda p: 0.0),
            TrivialBranch("phi=1/2", True, lambda p: 0.5),
            TrivialBranch("phi=1", False, lambda p: 1.0),
        ]


class OddOhtaKawasaki(OhtaKawasaki):
    """``OhtaKawasaki`` in the odd variable ``u = 2 phi - 1``: the form the continuation runs.

    With ``phi = (1 + u)/2`` the well term is ``36 phi (2 phi - 1)(phi - 1)
    = 9 (u^3 - u)`` and ``A``, ``B G B`` annihilate the constant, so the
    residual ``F_u(u) = eps A u - B (18/eps)(u^3 - u) - gamma (B G B) u``
    is ``2 F(phi)`` and its Jacobian in ``u`` is ``OhtaKawasaki``'s in
    ``phi``: at the constant states ``u = -1, 0, 1`` (labelled by their
    ``phi``) the band is the same bit for bit.  ``residual_norm`` halves
    ``sup|F_u|``, so ``newton_tol`` and the reported residuals keep
    bounding the ``phi`` residual.

    ``F_u`` is built from ``u*u*u``, stencils that add each node's
    neighbours commutatively and the mirror-summed ``green_apply``, so it
    is odd and commutes with the reversal ``R`` bit for bit, as AC's
    residual does: the symmetry center is 0.0, and every ACOK pitchfork
    from ``u = 0`` maps its ``+`` offshoot onto its ``-`` one exactly.
    ``phi_of`` gives the CLI its ``phi``.
    """

    def _well_slope(self, u: np.ndarray) -> np.ndarray:
        """``2 W'(phi)`` in ``u``: ``18 (u^3 - u)``."""
        return 18.0 * (_cube(u) - u)

    def _well_curvature(self, u: np.ndarray, eps: float) -> np.ndarray:
        """``-W''(phi)/eps`` in ``u``: ``-(18/eps)(3 u^2 - 1)``."""
        return (-18.0 / eps) * (3.0 * u * u - 1.0)

    def engine(self) -> "OddOhtaKawasaki":
        return self

    def symmetry_center(self, params: ModelParams) -> Optional[float]:
        """0.0: ``F_u`` is odd bit for bit (class docstring)."""
        return 0.0

    def phi_of(self, state: np.ndarray) -> np.ndarray:
        return 0.5 + 0.5 * state

    def residual_norm(self, residual: np.ndarray) -> float:
        # F_u = 2 F(phi): halving is exact.
        return 0.5 * float(np.max(np.abs(residual)))

    def trivial_branches(self, params: ModelParams) -> list[TrivialBranch]:
        return [
            TrivialBranch("phi=0", False, lambda p: -1.0),
            TrivialBranch("phi=1/2", True, lambda p: 0.0),
            TrivialBranch("phi=1", False, lambda p: 1.0),
        ]


#: Model class by the short model name used throughout the CLI.
MODELS = {cls.kind: cls for cls in (AllenCahn, CahnHilliardSteady, OhtaKawasaki)}


def model_by_kind(kind: str, grid: GridSpec):
    """Factory keyed by the short model names used throughout the CLI."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(MODELS)}")
    return MODELS[kind](grid)
