"""Unit tests for grids, discretized operators, the three PDE models, and
the nonlocal Green operator.  Oracles: closed-form solutions on [-1, 1],
finite differences, and exact floating-point symmetry identities."""

import hashlib
import math

import numpy as np
import pytest

from phase_bifurcate import (
    BandBorder,
    GridSpec,
    ModelParams,
    ch_trivial_roots,
    green_apply,
    green_operator,
    laplacian_apply,
    laplacian_matrix,
    model_by_kind,
    poisson_neumann_solve,
)
from phase_bifurcate.models import _compact_band, _neumann_system


def fd_jacobian(model, state, params, delta_scale=1e-6):
    """Central-difference Jacobian (test-side oracle)."""
    n = state.size
    jac = np.empty((n, n))
    for j in range(n):
        d = delta_scale * (1.0 + abs(state[j]))
        up = state.copy()
        dn = state.copy()
        up[j] += d
        dn[j] -= d
        jac[:, j] = (model.residual(up, params) - model.residual(dn, params)) / (2.0 * d)
    return jac


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3)  # odd
    with pytest.raises(ValueError):
        GridSpec(2)  # too small
    with pytest.raises(TypeError):
        GridSpec(100.0)  # not an int


def test_grid_nodes_span_and_spacing():
    g = GridSpec(8)
    assert g.n_nodes == 9
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
    assert np.allclose(np.diff(g.nodes), g.h)


def test_grid_nodes_are_bitwise_antisymmetric():
    g = GridSpec(200)
    assert np.array_equal(g.nodes, -g.nodes[::-1])


def test_trapezoid_weights_integrate_exactly_linear():
    g = GridSpec(50)
    w = g.trapezoid_weights
    assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)
    assert abs(float(w @ g.nodes)) <= 1e-15
    # quadratic: composite trapezoid error is (b-a) h^2 f''/12 = h^2/3
    assert float(w @ g.nodes**2) - 2.0 / 3.0 == pytest.approx(g.h**2 / 3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_apply_matches_matrix():
    g = GridSpec(30)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(g.n_nodes)
    assert np.max(np.abs(laplacian_apply(v, g) - laplacian_matrix(g) @ v)) <= 1e-12


def test_laplacian_is_second_order_on_smooth_data():
    gaps = []
    for n in (100, 200):
        g = GridSpec(n)
        u = np.cos(np.pi * g.nodes)  # zero-flux at both ends
        exact = -np.pi**2 * u
        gaps.append(np.max(np.abs(laplacian_apply(u, g) - exact)))
    order = math.log2(gaps[0] / gaps[1])
    assert 1.9 <= order <= 2.1


def test_laplacian_annihilates_constants():
    g = GridSpec(24)
    assert np.max(np.abs(laplacian_apply(np.full(g.n_nodes, 3.7), g))) == 0.0


def test_discrete_eigenmode_identity():
    """Folded-Neumann modes cos(k(x+1)) satisfy L u = -(4/h^2) sin^2(kh/2) u."""
    g = GridSpec(64)
    for m in (1, 3, 10):
        k = m * math.pi / 2.0
        u = np.cos(k * (g.nodes + 1.0))
        lam = (4.0 / g.h**2) * math.sin(k * g.h / 2.0) ** 2
        gap = np.max(np.abs(laplacian_apply(u, g) + lam * u))
        assert gap <= 1e-9 * lam, f"m={m}: {gap:.3e}"


# ---------------------------------------------------------------------------
# trivial states and cubic roots
# ---------------------------------------------------------------------------


def test_trivial_states_have_tiny_residual():
    # The last case guards verify's absolute 1e-12 trivial_residual_sup
    # bound on a fine grid at the top of the gamma window.
    cases = [
        ("ac", 50, ModelParams(epsilon=0.25)),
        ("ch", 50, ModelParams(epsilon=0.3, mu0=0.05)),
        ("acok", 50, ModelParams(epsilon=0.3, gamma=800.0)),
        ("acok", 800, ModelParams(epsilon=0.3, gamma=3000.0)),
    ]
    for kind, n_cells, params in cases:
        model = model_by_kind(kind, GridSpec(n_cells))
        for state in model.trivial_states(params):
            sup = np.max(np.abs(model.residual(state, params)))
            assert sup <= 1e-12, f"{kind} N={n_cells}: {sup:.3e}"


@pytest.mark.parametrize("n_cells", [50, 800, 4096])
def test_acok_constant_states_have_exactly_zero_residual(n_cells):
    # The well vanishes exactly at 0, 1/2 and 1 (u = -1, 0, 1), A and B act
    # exactly on constants, and green_apply subtracts f[m] first: no
    # rounding is left, in phi and in u.
    model = model_by_kind("acok", GridSpec(n_cells))
    params = ModelParams(epsilon=0.3, gamma=3000.0)
    for form in (model, model.engine()):
        for state in form.trivial_states(params):
            assert np.max(np.abs(form.residual(state, params))) == 0.0


def test_trivial_branches_bifurcating_flags_and_values():
    g = GridSpec(12)
    ac_params = ModelParams(epsilon=0.3)
    ac = model_by_kind("ac", g).trivial_branches(ac_params)
    assert [(b.value_of(ac_params), b.bifurcating) for b in ac] == [(-1.0, False), (0.0, True), (1.0, False)]
    ok_params = ModelParams(epsilon=0.3, gamma=100.0)
    ok = model_by_kind("acok", g).trivial_branches(ok_params)
    assert [(b.value_of(ok_params), b.bifurcating) for b in ok] == [(0.0, False), (0.5, True), (1.0, False)]
    odd = model_by_kind("acok", g).engine().trivial_branches(ok_params)
    assert [(b.label, b.value_of(ok_params)) for b in odd] == [("phi=0", -1.0), ("phi=1/2", 0.0), ("phi=1", 1.0)]
    assert [b.label for b in ok] == [b.label for b in odd] and [b.bifurcating for b in ok] == [b.bifurcating for b in odd]
    ch_params = ModelParams(epsilon=0.3, mu0=0.05)
    ch = model_by_kind("ch", g).trivial_branches(ch_params)
    assert sum(b.bifurcating for b in ch) == 1
    middle = [b for b in ch if b.bifurcating][0]
    assert middle.value_of(ch_params) == pytest.approx(-0.05 * 0.09, abs=1e-5)
    with pytest.raises(ValueError):
        model_by_kind("swift-hohenberg", g)


def test_trivial_branch_state_of_is_the_constant_vector():
    g = GridSpec(12)
    params = ModelParams(epsilon=0.3, mu0=0.05)
    for kind in ("ac", "ch", "acok"):
        for b in model_by_kind(kind, g).trivial_branches(params):
            s = b.state_of(params, g)
            assert s.shape == (13,)
            assert np.all(s == b.value_of(params)), f"{kind} {b.label}"
    s = model_by_kind("ac", g).trivial_branches(params)[1].state_of(params, g)
    assert np.all(s == 0.0)


def test_ch_roots_mu0_zero_are_exact():
    roots = ch_trivial_roots(ModelParams(epsilon=0.4, mu0=0.0))
    assert roots.values == (-1.0, 0.0, 1.0)
    assert roots.middle_index == 1


def test_ch_roots_match_numpy_roots():
    params = ModelParams(epsilon=0.3, mu0=0.05)
    c = params.mu0 * params.epsilon**2
    expected = np.sort(np.roots([1.0, 0.0, -1.0, -c]).real)
    got = ch_trivial_roots(params)
    assert len(got.values) == 3
    assert np.max(np.abs(np.array(got.values) - expected)) <= 1e-10
    # middle root of x^3 - x = c sits near -c for small c
    middle = got.values[got.middle_index]
    assert middle == pytest.approx(-c, abs=1e-5)
    for r in got.values:
        assert abs(r**3 - r - c) <= 1e-13


def test_ch_roots_single_root_beyond_fold():
    # |mu0 * eps^2| > 2/(3 sqrt 3): only one real root remains
    params = ModelParams(epsilon=1.0, mu0=0.6)
    got = ch_trivial_roots(params)
    assert len(got.values) == 1
    assert got.middle_index is None
    r = got.values[0]
    assert abs(r**3 - r - 0.6) <= 1e-12


def test_ch_trivial_branch_labels_follow_mu0():
    g = GridSpec(20)
    model = model_by_kind("ch", g)
    labels0 = [b.label for b in model.trivial_branches(ModelParams(epsilon=0.3, mu0=0.0))]
    labels5 = [b.label for b in model.trivial_branches(ModelParams(epsilon=0.3, mu0=0.05))]
    assert labels0 == ["phi=-1", "phi=0", "phi=+1"]
    assert labels5 == ["lowest-root", "middle-root", "highest-root"]


# ---------------------------------------------------------------------------
# Jacobians and parameter derivatives (finite-difference oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,params,center,spread",
    [
        ("ac", ModelParams(epsilon=0.2), 0.0, 0.8),
        ("ch", ModelParams(epsilon=0.3, mu0=0.05), 0.0, 0.8),
        ("acok", ModelParams(epsilon=0.3, gamma=700.0), 0.5, 0.45),
    ],
)
def test_jacobian_matches_finite_differences(kind, params, center, spread):
    g = GridSpec(16)
    model = model_by_kind(kind, g)
    rng = np.random.default_rng(2026)
    state = center + spread * (2.0 * rng.random(g.n_nodes) - 1.0)
    jac = model.jacobian(state, params)
    num = fd_jacobian(model, state, params)
    scale = max(1.0, np.max(np.abs(jac)))
    assert np.max(np.abs(jac - num)) / scale <= 1e-6


@pytest.mark.parametrize(
    "kind,params,center,spread",
    [
        ("ac", ModelParams(epsilon=0.2), 0.0, 0.8),
        ("ch", ModelParams(epsilon=0.3, mu0=0.05), 0.0, 0.8),
        ("acok", ModelParams(epsilon=0.3, gamma=700.0), 0.5, 0.45),
    ],
)
def test_param_derivative_matches_finite_differences(kind, params, center, spread):
    g = GridSpec(16)
    model = model_by_kind(kind, g)
    rng = np.random.default_rng(7)
    state = center + spread * (2.0 * rng.random(g.n_nodes) - 1.0)
    p0 = model.active_value(params)
    d = 1e-6 * (1.0 + abs(p0))
    r_up = model.residual(state, model.with_param(params, p0 + d))
    r_dn = model.residual(state, model.with_param(params, p0 - d))
    num = (r_up - r_dn) / (2.0 * d)
    got = model.param_derivative(state, params)
    scale = max(1.0, np.max(np.abs(got)))
    assert np.max(np.abs(got - num)) / scale <= 1e-6


def test_jacobian_is_residual_linearization():
    g = GridSpec(40)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.15)
    rng = np.random.default_rng(1)
    state = 0.5 * rng.standard_normal(g.n_nodes)
    direction = rng.standard_normal(g.n_nodes)
    jac = model.jacobian(state, params)
    gaps = []
    for t in (1e-3, 5e-4):
        lin = model.residual(state + t * direction, params) - model.residual(state, params)
        gaps.append(np.max(np.abs(lin - t * (jac @ direction))))
    # remainder is O(t^2): halving t quarters the gap
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)


def test_ch_with_mu0_zero_equals_ac():
    g = GridSpec(30)
    ac = model_by_kind("ac", g)
    ch = model_by_kind("ch", g)
    params = ModelParams(epsilon=0.21, mu0=0.0)
    rng = np.random.default_rng(4)
    state = 0.7 * rng.standard_normal(g.n_nodes)
    assert np.array_equal(ac.residual(state, params), ch.residual(state, params))
    assert np.array_equal(ac.jacobian(state, params), ch.jacobian(state, params))


# ---------------------------------------------------------------------------
# exact symmetry identities
# ---------------------------------------------------------------------------


def test_ac_residual_is_bitwise_odd():
    g = GridSpec(100)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.17)
    rng = np.random.default_rng(12)
    state = 0.9 * (2.0 * rng.random(g.n_nodes) - 1.0)
    assert np.array_equal(model.residual(-state, params), -model.residual(state, params))


def test_ac_residual_is_bitwise_reflection_equivariant():
    # CH with an offset too: branch switching takes the - side of its odd
    # modes as the unchecked reversal of the + side.
    g = GridSpec(100)
    rng = np.random.default_rng(13)
    for kind, mu0 in (("ac", 0.0), ("ch", 0.05), ("ch", 0.3)):
        model = model_by_kind(kind, g)
        params = ModelParams(epsilon=0.17, mu0=mu0)
        for _ in range(5):
            state = 0.9 * (2.0 * rng.random(g.n_nodes) - 1.0)
            flipped = state[::-1].copy()
            assert model.residual(flipped, params).tobytes() == model.residual(state, params)[::-1].tobytes(), kind


def test_acok_residual_half_symmetry():
    """phi -> 1 - phi negates the residual (to rounding) even at large gamma."""
    g = GridSpec(100)
    model = model_by_kind("acok", g)
    params = ModelParams(epsilon=0.3, gamma=1000.0)
    rng = np.random.default_rng(77)
    phi = 0.5 + 0.45 * (2.0 * rng.random(g.n_nodes) - 1.0)
    r = model.residual(phi, params)
    r_mirror = model.residual(1.0 - phi, params)
    assert np.max(np.abs(r_mirror + r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


def test_acok_residual_reflection_equivariance():
    g = GridSpec(100)
    model = model_by_kind("acok", g)
    params = ModelParams(epsilon=0.3, gamma=1000.0)
    rng = np.random.default_rng(78)
    phi = 0.5 + 0.45 * (2.0 * rng.random(g.n_nodes) - 1.0)
    r = model.residual(phi, params)
    r_flip = model.residual(phi[::-1].copy(), params)
    assert np.max(np.abs(r_flip - r[::-1])) <= 1e-12 * max(1.0, np.max(np.abs(r)))


@pytest.mark.parametrize(
    "kind, params, center",
    [
        ("ac", ModelParams(epsilon=0.17), 0.0),
        ("ch", ModelParams(epsilon=0.17, mu0=0.0), 0.0),
        ("ch", ModelParams(epsilon=0.17, mu0=0.05), None),
        ("acok", ModelParams(epsilon=0.3, gamma=0.0), 0.0),
        ("acok", ModelParams(epsilon=0.3, gamma=1000.0), 0.0),
    ],
    ids=["ac", "ch-mu0-0", "ch-mu0-0.05", "acok-gamma0", "acok-gamma1000"],
)
def test_symmetry_center_negates_the_residual(kind, params, center):
    # Bit for bit for every model the engine runs (ACOK in u = 2 phi - 1):
    # the branch-switch image is taken unchecked.  The phi form of ACOK has
    # no center, since 1 - phi rounds.
    g = GridSpec(100)
    model = model_by_kind(kind, g).engine()
    assert model.symmetry_center(params) == center
    assert model_by_kind(kind, g).symmetry_center(params) == (None if kind == "acok" else center)
    if center is None:
        return
    rng = np.random.default_rng(79)
    for _ in range(5):
        state = center + 0.9 * (2.0 * rng.random(g.n_nodes) - 1.0)
        r = model.residual(state, params)
        assert model.residual((2.0 * center) - state, params).tobytes() == (0.0 - r).tobytes()


@pytest.mark.parametrize("n_cells", [40, 100, 200, 800])
def test_acok_odd_residual_is_odd_and_commutes_with_the_reversal_bitwise(n_cells):
    # F_u(-u) = -F_u(u) and F_u(R u) = R F_u(u), both bit for bit, on random
    # states: what the exact - offshoots and the parity blocks rest on.
    g = GridSpec(n_cells)
    model = model_by_kind("acok", g).engine()
    rng = np.random.default_rng(n_cells)
    for gamma in (0.0, 100.0, 1000.0, 3000.0):
        params = ModelParams(epsilon=0.3, gamma=gamma)
        for _ in range(5):
            u = rng.uniform(-1.0, 1.0, g.n_nodes)
            r = model.residual(u, params)
            assert model.residual(-u, params).tobytes() == (-r).tobytes()
            assert model.residual(u[::-1].copy(), params).tobytes() == r[::-1].tobytes()


@pytest.mark.parametrize("n_cells", [40, 100, 800])
def test_acok_odd_form_is_twice_the_phi_residual_with_the_same_jacobian(n_cells):
    # F_u(u) = 2 F(phi) with phi = (1 + u)/2, and d F_u/du = d F/d phi: the
    # same band bit for bit at the three constant states, the same dense
    # Jacobian to rounding elsewhere.  residual_norm reads F_u in phi's units.
    g = GridSpec(n_cells)
    phi_model = model_by_kind("acok", g)
    model = phi_model.engine()
    rng = np.random.default_rng(7)
    for gamma in (0.0, 300.0, 3000.0):
        params = ModelParams(epsilon=0.3, gamma=gamma)
        for u_c, phi_c in ((-1.0, 0.0), (0.0, 0.5), (1.0, 1.0)):
            u, phi = np.full(g.n_nodes, u_c), np.full(g.n_nodes, phi_c)
            assert model.linearize(u, params).band.tobytes() == phi_model.linearize(phi, params).band.tobytes()
        u = rng.uniform(-0.9, 0.9, g.n_nodes)
        phi = model.phi_of(u)
        r, r_phi = model.residual(u, params), phi_model.residual(phi, params)
        assert np.max(np.abs(r - 2.0 * r_phi)) <= 1e-13 * np.max(np.abs(r))
        assert model.residual_norm(r) == 0.5 * np.max(np.abs(r))
        jac, jac_phi = model.jacobian(u, params), phi_model.jacobian(phi, params)
        assert np.max(np.abs(jac - jac_phi)) <= 1e-12 * np.max(np.abs(jac_phi))


# ---------------------------------------------------------------------------
# Green operator and Poisson solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_cells", [40, 42, 100, 200, 800, 4096])
def test_green_apply_commutes_with_the_reversal_and_negation_bitwise(n_cells):
    # Mirror-summed: each sum meets its mirror's terms in the same order.
    g = GridSpec(n_cells)
    rng = np.random.default_rng(n_cells + 1)
    for _ in range(10):
        f = rng.standard_normal(g.n_nodes)
        u = green_apply(f, g)
        assert green_apply(f[::-1].copy(), g).tobytes() == u[::-1].tobytes()
        assert green_apply(-f, g).tobytes() == (-u).tobytes()
    stacked = rng.standard_normal((g.n_nodes, 3))
    assert green_apply(stacked[::-1].copy(), g).tobytes() == green_apply(stacked, g)[::-1].tobytes()


def test_green_annihilates_constants():
    g = GridSpec(100)
    const = np.full(g.n_nodes, 2.5)
    assert np.max(np.abs(green_apply(const, g))) == 0.0
    assert np.max(np.abs(green_operator(g) @ const)) <= 1e-13


def test_green_output_has_zero_trapezoid_mean():
    g = GridSpec(100)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n_nodes)
    assert abs(float(g.trapezoid_weights @ green_apply(f, g))) <= 1e-13
    assert abs(float(g.trapezoid_weights @ (green_operator(g) @ f))) <= 1e-13


@pytest.mark.parametrize("n_cells", [4, 100, 800, 4096])
def test_green_apply_inverts_the_discrete_cosine_modes(n_cells):
    """Exact discrete oracle: ``cos(m pi (x+1)/2)`` is an eigenvector of the
    folded ``-A`` with eigenvalue ``a_m = (4/h^2) sin^2(m pi h/4)``, and has
    zero trapezoid mean unless it is the constant (``a_m = 0``)."""
    g = GridSpec(n_cells)
    for m in range(1, 21):
        if m % (2 * n_cells) == 0:
            continue
        mode = np.cos(m * math.pi * (g.nodes + 1.0) / 2.0)
        a_m = (4.0 / g.h**2) * math.sin(m * math.pi * g.h / 4.0) ** 2
        gap = np.max(np.abs(a_m * green_apply(mode, g) - mode))
        assert gap <= 1e-11 * np.max(np.abs(mode)), f"m={m}: {gap:.3e}"


def test_green_operator_is_green_apply_of_the_identity():
    g = GridSpec(100)
    matrix = green_operator(g)
    assert isinstance(matrix, np.ndarray) and not matrix.flags.writeable
    rng = np.random.default_rng(4)
    f = rng.standard_normal(g.n_nodes)
    assert np.max(np.abs(matrix @ f - green_apply(f, g))) <= 1e-15


def test_green_inverts_neumann_eigenfunctions():
    # cos(pi x) and sin(pi x / 2) are zero-flux, zero-mean eigenfunctions
    for n, tol in ((100, 4e-5), (200, 1e-5)):
        g = GridSpec(n)
        x = g.nodes
        f1 = np.cos(np.pi * x)
        assert np.max(np.abs(green_apply(f1, g) - f1 / np.pi**2)) <= tol
        f2 = np.sin(0.5 * np.pi * x)
        assert np.max(np.abs(green_apply(f2, g) - 4.0 * f2 / np.pi**2)) <= tol


def test_green_handles_non_eigenfunction_data():
    # -u'' = sin(pi x), u'(+-1) = 0, zero mean  =>  u = sin(pi x)/pi^2 + x/pi
    g = GridSpec(200)
    x = g.nodes
    u = green_apply(np.sin(np.pi * x), g)
    exact = np.sin(np.pi * x) / np.pi**2 + x / np.pi
    assert np.max(np.abs(u - exact)) <= 1e-4


def test_poisson_solve_sign_convention():
    # u'' = sin(pi x)  =>  u = -sin(pi x)/pi^2 - x/pi
    g = GridSpec(200)
    x = g.nodes
    u = poisson_neumann_solve(np.sin(np.pi * x), g)
    exact = -np.sin(np.pi * x) / np.pi**2 - x / np.pi
    assert np.max(np.abs(u - exact)) <= 1e-4


def test_poisson_solve_rejects_nonzero_mean_data():
    g = GridSpec(50)
    with pytest.raises(ValueError):
        poisson_neumann_solve(np.ones(g.n_nodes), g)


def test_green_matches_poisson_solve_to_rounding():
    """The prefix sums and their matrix are the exact discrete inverse of the solve route."""
    g = GridSpec(100)
    rng = np.random.default_rng(5)
    x = g.nodes
    w = g.trapezoid_weights
    raw = rng.standard_normal(g.n_nodes)
    inputs = [np.sin(np.pi * x), np.cos(np.pi * x), raw - (w @ raw) / 2.0]
    for f in inputs:
        u = poisson_neumann_solve(-f, g)
        assert np.max(np.abs(green_apply(f, g) - u)) <= 1e-12
        assert np.max(np.abs(green_operator(g) @ f - u)) <= 1e-12


# sha256 of green_apply(f), of the ACOK residual and of its odd form on
# polynomial inputs (no numpy transcendentals, whose SIMD paths differ by
# CPU).  None calls BLAS, so the bits hold under every OpenBLAS kernel.
# Re-recorded when green_apply became mirror-summed: against the previous
# pins' arrays green_apply moved by at most 4.7e-16, 1.3e-15 and 4.5e-14
# relative (N = 100, 200, 4096) and the phi residual by 8.5e-16, 8.5e-16
# and 7.9e-15.
_ACOK_RESIDUAL_PINS = {
    100: ("8f20292a9cd8011c20ccbf959a654d94ca6f216558274ea9d8182ac196ecd1c0",
          "e2c193736479ddfc5380ee8eac477256837033ecb8c47bc919c344c997bab730",
          "c1266159c17989564d059c8e2d757852e8205b445e6977e35e92ca0e02a951d9"),
    200: ("cee02e3e2b6aa89ec7d6d0a8acf54e96b1b34e9a397eb14b6af0a8a494b53add",
          "2f4bd52e6f8379e85b9f250008f043ffb1378b2266d94da7180f6d37bcc74077",
          "9f5ee154f5d7ace424d74a4f71d3e238700c117947b26671ffcbf8931dfcd1fa"),
    4096: ("1fe676767c2069fa1a81d416627bfbe7ee912fca948584f843922dcf7b344fa2",
           "bdab2be7a2efa39e37686fddae3bbefc4f5c308c79a4afa2babf7170b026f2c3",
           "7e94f563c7b50f323b7002cb5457696476a6d6ba5c1e41e0829263de64a5e893"),
}


@pytest.mark.parametrize("n_cells", sorted(_ACOK_RESIDUAL_PINS))
def test_acok_residual_is_pinned_bitwise(n_cells):
    grid = GridSpec(n_cells)
    x = grid.nodes
    f = x * (1.0 - x * x) + 0.3 * x * x
    psi = 0.5 + 0.4 * x * (1.0 - 0.5 * x * x)
    model, params = model_by_kind("acok", grid), ModelParams(epsilon=0.3, gamma=1000.0)
    outputs = (green_apply(f, grid), model.residual(psi, params), model.engine().residual(2.0 * psi - 1.0, params))
    digests = tuple(hashlib.sha256(u.tobytes()).hexdigest() for u in outputs)
    assert digests == _ACOK_RESIDUAL_PINS[n_cells]


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_model_by_kind_dispatch():
    g = GridSpec(10)
    assert model_by_kind("ac", g).kind == "ac"
    assert model_by_kind("ch", g).kind == "ch"
    assert model_by_kind("acok", g).kind == "acok"
    with pytest.raises(ValueError):
        model_by_kind("kdv", g)


def test_ac_ch_jacobians_are_tridiagonal():
    g = GridSpec(20)
    rng = np.random.default_rng(22)
    state = 0.8 * (2.0 * rng.random(g.n_nodes) - 1.0)
    for kind in ("ac", "ch"):
        jac = model_by_kind(kind, g).jacobian(state, ModelParams(epsilon=0.3, mu0=0.05))
        assert np.array_equal(jac, np.triu(np.tril(jac, 1), -1))


def test_compact_scheme_eigenvalues_are_fourth_order():
    """At phi=0, eps=1 the AC Jacobian -A - B has the folded cosine modes as
    eigenvectors with eigenvalue mu - b, where mu = (4/h^2) sin^2(kh/2) and
    b = 1 - mu h^2/12 are those of -A and B.  The compact eigenvalue mu/b
    misses k^2 by O((kh)^4), so halving h cuts the relative error ~16x."""
    errors = []
    for n_cells in (64, 128):
        g = GridSpec(n_cells)
        k = 5.0 * math.pi / 2.0
        u = np.cos(k * (g.nodes + 1.0))
        jac = model_by_kind("ac", g).jacobian(np.zeros(g.n_nodes), ModelParams(epsilon=1.0))
        mu = (4.0 / g.h**2) * math.sin(k * g.h / 2.0) ** 2
        b = 1.0 - mu * g.h**2 / 12.0
        assert np.max(np.abs(jac @ u - (mu - b) * u)) <= 1e-9 * mu
        errors.append(abs(mu / b - k * k) / (k * k))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.05)


@pytest.mark.parametrize("n_cells", [4, 50, 200, 1000])
def test_compact_nonlocal_block_is_green_minus_a_tridiagonal_correction(n_cells):
    """``B G B = G - 2c (I - P) - c^2 A`` with ``c = h^2/12`` and ``P = 1 w^T / 2``.

    ``B = I + c A``, ``A G = G A = -(I - P)`` and ``A P = 0``, so
    ``c (A G + G A) = -2c (I - P)`` and ``c^2 A G A = -c^2 A``.  The
    left side is built from the dense oracles, as the ``jacobian`` oracle
    builds it; ``linearize`` couples through the right side.
    """
    g = GridSpec(n_cells)
    n = g.n_nodes
    green, lap = green_operator(g), laplacian_matrix(g)
    compact = BandBorder(band=_compact_band(n), kl=1).to_dense()
    c = g.h * g.h / 12.0
    proj = np.outer(np.ones(n), g.trapezoid_weights) / 2.0
    want = green - 2.0 * c * (np.eye(n) - proj) - c * c * lap
    gap = np.max(np.abs(compact @ green @ compact - want))
    assert gap <= 1e-12 * np.max(np.abs(green)), f"{gap:.2e}"


def test_acok_linearize_is_the_interleaved_kl_ku_2_band():
    """v-row ``i`` is ``(T + 2c gamma I + c^2 gamma A) v - gamma u_i + 2c gamma s``,
    u-row ``i`` is ``v_i + (A u)_i + s`` and the border row is ``w^T u``,
    interleaved as ``(v_i, u_i)`` with ``s`` last."""
    g = GridSpec(40)
    n = g.n_nodes
    model = model_by_kind("acok", g)
    state = 0.5 + 0.3 * np.tanh(g.nodes / 0.1)
    gamma, c = 700.0, g.h * g.h / 12.0
    lin = model.linearize(state, ModelParams(epsilon=0.3, gamma=gamma))
    assert (lin.kl, lin.ku, lin.k) == (2, 2, 1)
    assert np.array_equal(lin.outer, np.arange(0, 2 * n, 2))
    assert lin.hidden_sign == _neumann_system(g)[2]
    # Four nonzeros per band row, at offsets -2, 0, +1, +2 and -2, -1, 0, +2.
    v_rows, u_rows = lin.band[0::2] != 0.0, lin.band[1::2] != 0.0
    assert np.array_equal(v_rows[1:-1], np.tile([True, False, True, True, True], (n - 2, 1)))
    assert np.array_equal(u_rows[1:-1], np.tile([True, True, True, False, True], (n - 2, 1)))
    full = lin.to_dense()
    v, u, s = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2), 2 * n
    local = model.jacobian(state, ModelParams(epsilon=0.3, gamma=0.0))
    lap = laplacian_matrix(g)
    want = local + 2.0 * c * gamma * np.eye(n) + c * c * gamma * lap
    assert np.max(np.abs(full[np.ix_(v, v)] - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(full[np.ix_(v, u)], -gamma * np.eye(n))
    assert np.array_equal(full[v, s], np.full(n, 2.0 * c * gamma))
    assert np.array_equal(full[np.ix_(u, v)], np.eye(n))
    assert np.array_equal(full[np.ix_(u, u)], lap)
    assert np.array_equal(full[u, s], np.ones(n))
    assert np.array_equal(full[s, u], g.trapezoid_weights)
    assert not full[s, v].any() and full[s, s] == 0.0


def test_model_rejects_bad_state_shape():
    g = GridSpec(10)
    model = model_by_kind("ac", g)
    with pytest.raises(ValueError):
        model.residual(np.zeros(5), ModelParams(epsilon=0.3))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
