"""Closed-form bifurcation values, eigenmode samplers, and stability bounds.

This is the analytic oracle layer: everything here comes from pencil-and-paper
formulas for the continuum problems, independent of the finite-difference
engine, so the two can be checked against each other.

Mode families on [-1, 1] with zero-flux boundaries:

- "sine"  : sin(k x) with k = pi/2 + n*pi, n >= 0 (odd about x=0)
- "cosine": cos(k x) with k = n*pi,        n >= 1 (even about x=0)

The constant mode (cosine n=0) never loses stability on the trivial branches
considered here, so requesting it is a contract violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _fix_sign
from .models import GridSpec, ModelParams, ch_trivial_roots

__all__ = [
    "AnalyticBifurcation",
    "sine_wavenumber",
    "cosine_wavenumber",
    "mode_wavenumber",
    "ac_bifurcation",
    "ch_bifurcation",
    "acok_bifurcation",
    "ac_bifurcations_in_range",
    "acok_bifurcations_in_range",
    "eigenmode",
    "implicit_step_threshold",
]

@dataclass(frozen=True)
class AnalyticBifurcation:
    """One closed-form bifurcation point of a trivial branch."""

    model_kind: str  # "ac" | "ch" | "acok"
    mode_family: str  # "sine" | "cosine"
    mode_index: int
    param_value: float


def sine_wavenumber(n: int) -> float:
    if n < 0:
        raise ValueError(f"sine mode index must be >= 0, got {n}")
    return math.pi / 2.0 + n * math.pi


def cosine_wavenumber(n: int) -> float:
    if n < 1:
        raise ValueError(f"cosine mode index must be >= 1, got {n} (the constant mode never bifurcates)")
    return n * math.pi


def mode_wavenumber(n: int, family: str) -> float:
    if family == "sine":
        return sine_wavenumber(n)
    if family == "cosine":
        return cosine_wavenumber(n)
    raise ValueError(f"unknown mode family {family!r}; expected 'sine' or 'cosine'")


def ac_bifurcation(n: int, family: str) -> AnalyticBifurcation:
    """Critical interface width: eps_n = 1/k for the Allen-Cahn trivial branch.

    Linearizing around phi=0 gives eigenvalues k^2 - 1/eps^2 per Neumann mode,
    so each mode crosses zero at eps = 1/k.
    """
    k = mode_wavenumber(n, family)
    return AnalyticBifurcation("ac", family, n, 1.0 / k)


def ch_bifurcation(n: int, family: str, mu0: float) -> AnalyticBifurcation:
    """Critical eps for the constant-potential model on its middle trivial root.

    Solves the exact kernel condition

        k^2 - 1/eps^2 + 3*phi0(mu0, eps)^2/eps^2 = 0

    by scalar Newton in eps, where phi0 is the exact middle root of
    phi^3 - phi = mu0*eps^2.  Seeded at the mu0=0 value 1/k; for mu0=0
    this returns exactly 1/k.  The mu0 dependence is O(mu0^2), which tests
    use as a bound, not as the value.
    """
    k = mode_wavenumber(n, family)
    if mu0 == 0.0:
        return AnalyticBifurcation("ch", family, n, 1.0 / k)

    def middle_root(eps: float) -> float:
        roots = ch_trivial_roots(ModelParams(epsilon=eps, mu0=mu0))
        if roots.middle_index is None:
            raise ValueError(
                f"no middle trivial root at mu0={mu0}, eps={eps}: outside the three-real-root window"
            )
        return roots.values[roots.middle_index]

    def kernel(eps: float) -> float:
        phi0 = middle_root(eps)
        return k * k - 1.0 / eps**2 + 3.0 * phi0 * phi0 / eps**2

    eps = 1.0 / k
    last = eps
    for _ in range(60):
        f = kernel(eps)
        # Derivative by small central difference: the phi0(eps) chain rule is
        # available analytically but the scalar FD is exact to rounding here
        # and keeps the root condition itself the single source of truth.
        d = 1e-8 * max(abs(eps), 1e-4)
        df = (kernel(eps + d) - kernel(eps - d)) / (2.0 * d)
        if df == 0.0:
            break
        step = f / df
        last = eps
        eps -= step
        if eps <= 0.0:
            eps = 0.5 * last
            continue
        if abs(step) <= 1e-14 * abs(eps):
            return AnalyticBifurcation("ch", family, n, eps)
    raise RuntimeError(
        f"kernel-condition Newton failed for CH mode ({family}, n={n}) at mu0={mu0}; last iterate eps={eps}"
    )


def acok_bifurcation(n: int, family: str, epsilon: float) -> AnalyticBifurcation:
    """Critical nonlocal strength gamma = -eps*k^4 + (18/eps)*k^2 on phi=1/2.

    Values may be negative for large k (mode never destabilizes at physical
    gamma > 0); they are reported anyway and filtered by consumers.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    k = mode_wavenumber(n, family)
    gamma = -epsilon * k**4 + (18.0 / epsilon) * k**2
    return AnalyticBifurcation("acok", family, n, gamma)


def ac_bifurcations_in_range(lo: float, hi: float) -> list[AnalyticBifurcation]:
    """All AC bifurcation values in [lo, hi], sorted descending in eps."""
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    out = []
    n = 0
    while True:
        b = ac_bifurcation(n, "sine")
        if b.param_value < lo:
            break
        if b.param_value <= hi:
            out.append(b)
        n += 1
    n = 1
    while True:
        b = ac_bifurcation(n, "cosine")
        if b.param_value < lo:
            break
        if b.param_value <= hi:
            out.append(b)
        n += 1
    return sorted(out, key=lambda b: -b.param_value)


def acok_bifurcations_in_range(epsilon: float, lo: float, hi: float) -> list[AnalyticBifurcation]:
    """All ACOK bifurcation values with lo < gamma <= hi, sorted ascending.

    gamma(k) = k^2*(18/eps - eps*k^2) is positive only for k < sqrt(18)/eps,
    which bounds the enumeration.
    """
    out = []
    k_cap = math.sqrt(18.0) / epsilon
    for family, start in (("sine", 0), ("cosine", 1)):
        n = start
        while mode_wavenumber(n, family) <= k_cap:
            b = acok_bifurcation(n, family, epsilon)
            if lo < b.param_value <= hi:
                out.append(b)
            n += 1
    return sorted(out, key=lambda b: b.param_value)


def eigenmode(n: int, family: str, grid: GridSpec) -> np.ndarray:
    """Nodal samples of the analytic mode, unit 2-norm, first significant entry positive."""
    k = mode_wavenumber(n, family)
    x = grid.nodes
    v = np.sin(k * x) if family == "sine" else np.cos(k * x)
    return _fix_sign(v / float(np.linalg.norm(v)))


def implicit_step_threshold(epsilon: float) -> float:
    """Largest stable implicit time step for the linearized scheme: eps^2."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon * epsilon
