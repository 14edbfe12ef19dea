"""Tests for the continuation engine: Newton corrector, predictor, natural
and pseudo-arclength tracing, det-sign event detection, branch switching,
dedupe, parameter slicing, and diagrams computed for one slice.

Heavy machinery is exercised on small grids (N=80..100); fold handling uses
a two-unknown toy system with known geometry (x1^2 + mu = 1, x2 = x1: a fold
at mu=1 that natural stepping cannot round but arclength must)."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from phase_bifurcate import (
    BandBorder,
    BranchOrigin,
    ContinuationSettings,
    GridSpec,
    ModelParams,
    NewtonFailure,
    SingularMatrixError,
    ac_bifurcation,
    ac_bifurcations_in_range,
    acok_bifurcations_in_range,
    branch_switch,
    compute_diagram,
    default_settings,
    det_sign,
    detect_bifurcations_on_trivial,
    eigenmode,
    euler_predict,
    linalg,
    lu_factor,
    lu_solve,
    model_by_kind,
    newton_correct,
    solutions_at,
    trace_branch,
)
from phase_bifurcate import cli, continuation
from phase_bifurcate.continuation import Branch, BranchPoint, _dedupe_branches, _sup


class DenseLinearization:
    """Toy models hand their small dense Jacobians to the engine as a band, and measure residuals by sup-norm."""

    def linearize(self, state, mu):
        return BandBorder.from_dense(self.jacobian(state, mu))

    def residual_norm(self, residual):
        return _sup(residual)


class FoldModel(DenseLinearization):
    """x1^2 + mu - 1 = 0, x2 - x1 = 0: one fold at (x1, mu) = (0, 1)."""

    kind = "toy-fold"
    active_parameter = "mu"

    def with_param(self, params, value):
        return float(value)

    def active_value(self, params):
        return float(params)

    def residual(self, state, mu):
        x1, x2 = state
        return np.array([x1 * x1 + mu - 1.0, x2 - x1])

    def jacobian(self, state, mu):
        x1 = state[0]
        return np.array([[2.0 * x1, 0.0], [-1.0, 1.0]])

    def param_derivative(self, state, mu):
        return np.array([1.0, 0.0])


class RankDeficientModel(DenseLinearization):
    """Identically singular Jacobian: both equations are x1 - x2."""

    def with_param(self, params, value):
        return float(value)

    def active_value(self, params):
        return float(params)

    def residual(self, state, mu):
        return np.array([state[0] - state[1] - mu, state[0] - state[1] - mu])

    def jacobian(self, state, mu):
        return np.array([[1.0, -1.0], [1.0, -1.0]])

    def param_derivative(self, state, mu):
        return np.array([-1.0, -1.0])


class CubeRootModel(DenseLinearization):
    """Newton on cbrt(x) doubles the iterate each sweep: guaranteed divergence."""

    def with_param(self, params, value):
        return float(value)

    def active_value(self, params):
        return float(params)

    def residual(self, state, mu):
        return np.cbrt(state)

    def jacobian(self, state, mu):
        return np.diag(1.0 / (3.0 * np.cbrt(state) ** 2))

    def param_derivative(self, state, mu):
        return np.zeros_like(state)


def toy_settings(**overrides):
    base = dict(
        param_min=-0.5,
        param_max=1.5,
        initial_step=0.05,
        min_step=1e-6,
        max_step=0.1,
    )
    base.update(overrides)
    return ContinuationSettings(**base)


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------


def test_settings_validation():
    with pytest.raises(ValueError):
        toy_settings(param_min=2.0)  # min >= max
    with pytest.raises(ValueError):
        toy_settings(min_step=0.2)  # min_step > initial_step
    with pytest.raises(ValueError):
        toy_settings(max_step=0.01)  # initial_step > max_step
    with pytest.raises(ValueError):
        toy_settings(newton_tol=0.0)
    with pytest.raises(ValueError):
        toy_settings(max_newton_iters=0)
    with pytest.raises(ValueError):
        toy_settings(dedupe_tol=-1.0)


def test_settings_derived_widths():
    s = toy_settings()
    assert s.range_width == pytest.approx(2.0)
    assert s.bisection_width == pytest.approx(2e-10)


def test_default_settings_windows():
    ac = default_settings("ac")
    assert (ac.param_min, ac.param_max) == (0.05, 0.7)
    ok = default_settings("acok")
    assert (ok.param_min, ok.param_max) == (0.0, 2000.0)
    tweaked = default_settings("ac", param_max=0.5, initial_step=1e-3)
    assert tweaked.param_max == 0.5 and tweaked.initial_step == 1e-3
    with pytest.raises(ValueError):
        default_settings("gray-scott")


@pytest.mark.parametrize(
    "kind, closest",
    [("ac", 4.82e-3), ("acok", 92.7)],
)
def test_house_windows_hold_at_most_one_crossing_per_scan_step(kind, closest):
    # Detection reports one event per scan step, so the house step must stay
    # below the closest spacing of the closed-form crossings in its window
    # (ch at mu0 = 0 is ac; acok at the CLI's default epsilon, 0.3).
    s = default_settings(kind)
    if kind == "acok":
        found = acok_bifurcations_in_range(0.3, s.param_min, s.param_max)
    else:
        found = ac_bifurcations_in_range(s.param_min, s.param_max)
    crossings = sorted(b.param_value for b in found)
    steps = [math.floor((c - s.param_min) / s.initial_step) for c in crossings]
    assert len(set(steps)) == len(steps) > 1
    spacing = float(np.min(np.diff(crossings)))
    assert spacing == pytest.approx(closest, rel=1e-3)
    assert spacing > s.initial_step  # whatever the alignment of the scan grid


# ---------------------------------------------------------------------------
# corrector and predictor
# ---------------------------------------------------------------------------


def test_newton_accepts_exact_state_without_iterating():
    g = GridSpec(50)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.3)
    point = newton_correct(model, params, -np.ones(g.n_nodes), default_settings("ac"))
    assert point.newton_iters_used == 0
    assert point.residual_norm <= 1e-12
    assert point.det_sign == 1  # phi=-1 is linearly stable: positive-definite J


def test_newton_converges_to_odd_symmetric_state():
    g = GridSpec(100)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.1)
    guess = 0.9 * np.tanh(g.nodes / (0.1 * math.sqrt(2.0)))
    point = newton_correct(model, params, guess, default_settings("ac"))
    assert point.residual_norm <= 1e-10
    assert np.max(np.abs(point.state + point.state[::-1])) <= 1e-9
    assert np.max(np.abs(point.state)) > 0.9


@pytest.mark.parametrize("n_cells", [100, 200, 400])
def test_newton_from_exactly_odd_guess_stays_exactly_odd(n_cells):
    """The residual and the band solve are reflection-equivariant bit for bit,
    so every Newton iterate from an odd guess is odd, with no rounding drift."""
    g = GridSpec(n_cells)
    model = model_by_kind("ac", g)
    for eps in (0.05, 0.08, 0.1, 0.15):
        raw = 0.9 * np.tanh(g.nodes / (eps * math.sqrt(2.0)))
        guess = 0.5 * (raw - raw[::-1])
        assert np.array_equal(guess, -guess[::-1])
        point = newton_correct(model, ModelParams(epsilon=eps), guess, default_settings("ac"))
        assert point.residual_norm <= 1e-10
        assert np.array_equal(point.state, -point.state[::-1]), f"eps={eps}"


def test_newton_no_convergence_reason():
    g = GridSpec(20)
    model = model_by_kind("ac", g)
    with pytest.raises(NewtonFailure) as info:
        newton_correct(
            model,
            ModelParams(epsilon=0.5),
            5.0 * np.ones(g.n_nodes),
            default_settings("ac", max_newton_iters=2),
        )
    assert info.value.reason == "no_convergence"
    assert info.value.iterations == 2


def test_newton_singular_reason():
    with pytest.raises(NewtonFailure) as info:
        newton_correct(RankDeficientModel(), 0.5, np.array([1.0, 0.0]), toy_settings())
    assert info.value.reason == "singular"


class OddSingularModel:
    """``F(x) = J x - b``, with ``J`` an own mirror band of order 5 whose odd block ``[[1, 1], [1, 1]]`` is singular.

    Its even block ``[[1, 1, 0], [1, 1, 3], [0, 4, 5]]`` has det -12.
    """

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        sub, diag = [0.0, 1.0, 2.0, 3.0, 1.0], [1.0, 1.0, 5.0, 1.0, 1.0]
        self.system = BandBorder(band=np.column_stack((sub, diag, sub[::-1])), kl=1)

    def with_param(self, params, value):
        return float(value)

    def active_value(self, params):
        return float(params)

    def residual(self, state, mu):
        return self.system.to_dense() @ state - self.b

    def residual_norm(self, residual):
        return _sup(residual)

    def linearize(self, state, mu):
        return self.system


def test_newton_corrects_on_a_regular_block_of_a_singular_jacobian():
    # The correction of an odd residual is solved on the odd block only: a
    # singular odd block stops it, a singular block of the other parity does
    # not (the full Jacobian is singular in both cases).
    assert lu_factor(OddSingularModel(np.zeros(5)).system).singular
    even = OddSingularModel([1.0, 2.0, 3.0, 2.0, 1.0])
    point = newton_correct(even, 0.0, np.zeros(5), toy_settings())
    assert point.newton_iters_used == 1 and point.residual_norm == 0.0 and point.det_sign == 0
    assert np.array_equal(point.state, point.state[::-1])
    with pytest.raises(NewtonFailure) as info:
        newton_correct(OddSingularModel([1.0, 2.0, 0.0, -2.0, -1.0]), 0.0, np.zeros(5), toy_settings())
    assert info.value.reason == "singular" and info.value.iterations == 0


class OddSingularFamily(OddSingularModel):
    """``F(x, mu) = J x - mu b``: ``OddSingularModel``'s band, with the parameter scaling ``b``."""

    def residual(self, state, mu):
        return self.system.to_dense() @ state - mu * self.b

    def param_derivative(self, state, mu):
        return -self.b


def test_euler_predict_solves_on_a_regular_block_of_a_singular_jacobian():
    # The predictor solves J dx = b dmu.  For an even b that is the even
    # block's solve alone, so the singular odd block does not stop it, even
    # through a factorization flagged singular (its det sign read, 0); an
    # odd b meets the singular block and raises.
    even = OddSingularFamily([1.0, 2.0, 3.0, 2.0, 1.0])
    point = newton_correct(even, 1.0, np.zeros(5), toy_settings())
    assert point.det_sign == 0
    flagged = lu_factor(even.system)
    assert flagged.singular
    for fact in (None, lu_factor(even.system), flagged):
        guess = euler_predict(even, 1.0, point, 0.5, fact)
        assert np.array_equal(guess, guess[::-1])
        assert np.max(np.abs(even.residual(guess, 1.5))) <= 1e-14
    odd = OddSingularFamily([1.0, 2.0, 0.0, -2.0, -1.0])
    for fact in (None, lu_factor(odd.system)):
        with pytest.raises(SingularMatrixError):
            euler_predict(odd, 1.0, BranchPoint(1.0, np.zeros(5), 0.0, 0, 0), 0.5, fact)


def test_newton_diverged_reason():
    with pytest.raises(NewtonFailure) as info:
        newton_correct(CubeRootModel(), 0.0, np.array([1.0]), toy_settings())
    assert info.value.reason == "diverged"


def test_newton_det_sign_zero_at_exact_fold():
    point = newton_correct(FoldModel(), 1.0, np.array([0.0, 0.0]), toy_settings())
    assert point.newton_iters_used == 0
    assert point.det_sign == 0


def test_euler_predict_is_second_order():
    model = FoldModel()
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), toy_settings())
    fact = lu_factor(model.linearize(start.state, 0.0))
    errs = []
    for step in (0.1, 0.05):
        pred = euler_predict(model, 0.0, start, step, fact)
        exact = math.sqrt(1.0 - step)
        errs.append(abs(pred[0] - exact))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_euler_predict_raises_on_a_singular_factorization():
    model = FoldModel()
    fold = newton_correct(model, 1.0, np.array([0.0, 0.0]), toy_settings())
    fact = lu_factor(model.linearize(fold.state, 1.0))
    assert fact.singular
    with pytest.raises(SingularMatrixError):
        euler_predict(model, 1.0, fold, -0.1, fact)


@pytest.mark.parametrize("kind, params, constant", [
    ("ac", ModelParams(epsilon=0.4), 0.0),
    ("ac", ModelParams(epsilon=0.4), -1.0),
    ("acok", ModelParams(epsilon=0.3, gamma=300.0), 0.5),
    ("acok", ModelParams(epsilon=0.3, gamma=300.0), 1.0),
])
def test_euler_predict_copies_a_constant_state_without_a_solve(kind, params, constant, monkeypatch):
    # F_mu is exactly 0 at a constant state that does not move with the
    # parameter: the prediction is the state bit for bit, what the solve
    # with a zero right-hand side gives, and no solve is made.
    g = GridSpec(40)
    model = model_by_kind(kind, g)
    point = newton_correct(model, params, np.full(g.n_nodes, constant), default_settings(kind))
    fmu = model.param_derivative(point.state, params)
    assert not fmu.any()
    fact = lu_factor(model.linearize(point.state, params))
    solved = point.state + lu_solve(fact, -fmu * -0.01)
    monkeypatch.setattr(continuation, "lu_solve", lambda *a: pytest.fail("euler_predict solved"))
    pred = euler_predict(model, params, point, -0.01, fact)
    assert pred is not point.state
    assert pred.tobytes() == point.state.tobytes() == solved.tobytes()
    singular = lu_factor(BandBorder.from_dense(np.zeros((g.n_nodes, g.n_nodes))))
    assert singular.singular
    with pytest.raises(SingularMatrixError):
        euler_predict(model, params, point, -0.01, singular)
    # No factorization (a well's: known regular) is made for no solve.
    monkeypatch.setattr(continuation, "lu_factor", lambda *a: pytest.fail("euler_predict factored"))
    assert euler_predict(model, params, point, -0.01, None).tobytes() == point.state.tobytes()


def test_euler_predict_without_a_factorization_factors_for_its_solve():
    # A CH well with an offset moves with epsilon: F_mu is not zero, so the
    # solve needs the factorization, made from the point as the tracer would.
    g = GridSpec(40)
    model = model_by_kind("ch", g)
    params = ModelParams(epsilon=0.3, mu0=0.05)
    (well, *_) = [tb for tb in model.trivial_branches(params) if not tb.bifurcating]
    point = newton_correct(model, params, well.state_of(params, g), default_settings("ch"))
    assert model.param_derivative(point.state, params).any()
    fact = lu_factor(model.linearize(point.state, params))
    want = euler_predict(model, params, point, -0.01, fact)
    assert euler_predict(model, params, point, -0.01, None).tobytes() == want.tobytes()
    assert want.tobytes() != point.state.tobytes()


# ---------------------------------------------------------------------------
# natural tracing
# ---------------------------------------------------------------------------


def test_natural_trace_reaches_param_bound():
    model = FoldModel()
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), toy_settings())
    branch = trace_branch(model, 0.0, toy_settings(), start, -1, branch_id="toy")
    assert branch.stop_reason == "param_bound"
    assert branch.points[-1].param == pytest.approx(-0.5, abs=1e-12)
    # solution stays on x1 = sqrt(1 - mu)
    for p in branch.points:
        assert p.state[0] == pytest.approx(math.sqrt(1.0 - p.param), abs=1e-8)


def test_natural_trace_stops_at_min_step_before_fold():
    model = FoldModel()
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), toy_settings())
    branch = trace_branch(model, 0.0, toy_settings(), start, +1, branch_id="toy")
    assert branch.stop_reason == "min_step"
    assert branch.points[-1].param < 1.0
    assert branch.points[-1].param > 0.99  # got close to the fold, never past it
    params = np.array([p.param for p in branch.points])
    assert np.all(np.diff(params) > 0.0)  # natural mode is monotone


def test_natural_trace_respects_max_points():
    model = FoldModel()
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), toy_settings())
    branch = trace_branch(
        model, 0.0, toy_settings(max_branch_points=5), start, -1, branch_id="toy"
    )
    assert branch.stop_reason == "max_points"
    assert len(branch.points) == 5


def test_trace_rejects_bad_direction():
    model = FoldModel()
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), toy_settings())
    with pytest.raises(ValueError):
        trace_branch(model, 0.0, toy_settings(), start, 0)


def test_prepend_points_are_kept():
    model = FoldModel()
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), toy_settings())
    marker = BranchPoint(param=0.0, state=np.array([9.0, 9.0]), residual_norm=0.0, det_sign=1, newton_iters_used=0)
    branch = trace_branch(model, 0.0, toy_settings(), start, -1, prepend=(marker,))
    assert branch.points[0] is marker


# ---------------------------------------------------------------------------
# pseudo-arclength tracing
# ---------------------------------------------------------------------------


def test_arclength_trace_rounds_the_fold():
    model = FoldModel()
    settings = toy_settings(use_pseudo_arclength=True)
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), settings)
    branch = trace_branch(model, 0.0, settings, start, +1, branch_id="toy")
    params = np.array([p.param for p in branch.points])
    assert params.max() == pytest.approx(1.0, abs=1e-3)  # reached the fold
    assert branch.points[-1].state[0] < -0.9  # and came down the lower sheet
    assert branch.points[-1].param < 0.2
    assert branch.stop_reason == "param_bound"
    # every accepted point still satisfies the system
    for p in branch.points:
        assert p.residual_norm <= 1e-8


def test_arclength_agrees_with_natural_on_fold_free_segment():
    model = FoldModel()
    nat = toy_settings()
    arc = toy_settings(use_pseudo_arclength=True)
    start = newton_correct(model, 0.0, np.array([1.0, 1.0]), nat)
    b_nat = trace_branch(model, 0.0, nat, start, -1)
    b_arc = trace_branch(model, 0.0, arc, start, -1)
    # compare x1 at a common parameter by interpolation; the tolerance is
    # dominated by linear interpolation between coarse points, not the solver
    for mu_q in (-0.2, -0.45):
        x_nat = np.interp(mu_q, [p.param for p in b_nat.points][::-1], [p.state[0] for p in b_nat.points][::-1])
        x_arc = np.interp(mu_q, [p.param for p in b_arc.points][::-1], [p.state[0] for p in b_arc.points][::-1])
        assert x_nat == pytest.approx(x_arc, abs=5e-4)
        assert x_nat == pytest.approx(math.sqrt(1.0 - mu_q), abs=5e-4)


@pytest.fixture(scope="module")
def arclength_branches(ac_detection):
    """(model, params, branch): the AC sine-0 offshoots and the fold toy's branch."""
    g, model, params, settings, bifs = ac_detection
    arc = replace(settings, use_pseudo_arclength=True)
    sine0 = [b for b in bifs if b.mode_family == "sine"][0]
    branches = branch_switch(model, params, arc, sine0)
    fold_model = FoldModel()
    fold_settings = toy_settings(use_pseudo_arclength=True)
    start = newton_correct(fold_model, 0.0, np.array([1.0, 1.0]), fold_settings)
    cases = [(model, params, b) for b in branches]
    cases.append((fold_model, 0.0, trace_branch(fold_model, 0.0, fold_settings, start, +1)))
    for _, _, branch in cases:
        assert len(branch.points) > 3
    return cases


# The AC pseudo-arclength diagram at N=40 over eps in [0.25, 0.7]: per
# branch, its point count, last parameter and the sha256 of its stacked
# states.  The trivial rows were recorded since constant branches are
# traced against the parameter whatever the settings say (they end at
# param_min, 0.25); the offshoot rows since every solve with an even or
# odd AC Jacobian goes through its parity blocks (``linalg.ParityLuFactorization``).
_ARCLENGTH_DIAGRAM_N40 = (
    ("trivial:phi=-1", 115, "0x1.0000000000000p-2", "43839bd22591d29c086c3937aa0e0cd54d0a19d332d093b890c1c20b57806074"),
    ("trivial:phi=0", 115, "0x1.0000000000000p-2", "a8fce3fb06ce3bd8c76bcdf60b4ea17197b535ab46de6001a147b10982737668"),
    ("trivial:phi=+1", 115, "0x1.0000000000000p-2", "a89d094e080837cebf58af4d9d1229bae5381281c3ea0cd9a5acd563431a1871"),
    ("bp0+", 64, "0x1.fe94290bcb1bap-3", "9c3cfc226278aad0d1ffd700f65cf890953d0671157769c149840d0f8fce090f"),
    ("bp0-", 64, "0x1.fe94290bcb1bap-3", "a7e7e7da415070eb809a2492a7690682180d37d499c93360f0a58213abec576b"),
    ("bp1+", 144, "0x1.fe5048e543530p-3", "d4ef36aeb805d955d09e045f9670f551a758d675592224997f99d17d0be88732"),
    ("bp1-", 144, "0x1.fe5048e543530p-3", "ef43c0167fc0e8ac54562d2b73377bf3972af63d355dea838de9dc5ec51e7d5e"),
)


def test_arclength_diagram_is_pinned_bitwise(monkeypatch):
    # OpenBLAS picks its dot kernel by CPU, and the kernels round
    # differently.  The diagram's two BLAS reductions, the arclength
    # frame's dot and the null mode's 2-norm, are replaced by exactly
    # rounded sums, so the pin holds on every CPU.
    def exact_dot(self, dx_a, dmu_a, dx_b, dmu_b):
        return math.fsum(dx_a * dx_b) / self.n + (dmu_a * dmu_b) / self.pscale**2

    monkeypatch.setattr(continuation._ArclengthFrame, "dot", exact_dot)
    monkeypatch.setattr(np.linalg, "norm", lambda v: math.sqrt(math.fsum(np.ravel(v) ** 2)))
    settings = default_settings("ac", param_min=0.25, param_max=0.7, use_pseudo_arclength=True)
    diagram = compute_diagram(model_by_kind("ac", GridSpec(40)), ModelParams(epsilon=0.5), settings)
    got = tuple(
        (b.id, len(b.points), b.points[-1].param.hex(),
         hashlib.sha256(np.stack([p.state for p in b.points]).tobytes()).hexdigest())
        for b in diagram.branches
    )
    assert got == _ARCLENGTH_DIAGRAM_N40


@pytest.mark.parametrize("kind, params, n_cells, window", [
    ("ac", ModelParams(epsilon=0.5), 40, (0.25, 0.7)),
    ("ch", ModelParams(epsilon=0.5, mu0=0.05), 40, (0.25, 0.7)),
    ("acok", ModelParams(epsilon=0.3), 40, (0.0, 700.0)),
], ids=["ac", "ch-mu0-0.05", "acok"])
def test_arclength_diagram_traces_constant_branches_against_the_parameter(kind, params, n_cells, window):
    # A constant branch has no fold to round: with pseudo-arclength set it
    # is still the natural trace bit for bit, down to param_min exactly.
    model = model_by_kind(kind, GridSpec(n_cells))
    natural = default_settings(kind, param_min=window[0], param_max=window[1])
    arclength = replace(natural, use_pseudo_arclength=True)
    got, want = (
        [b for b in compute_diagram(model, params, s).branches if b.origin.kind == "trivial"]
        for s in (arclength, natural)
    )
    assert [b.id for b in got] == [b.id for b in want] and len(got) == 3
    for a, b in zip(got, want):
        assert a.id.startswith("trivial:")
        assert a.stop_reason == b.stop_reason == "param_bound"
        assert a.points[-1].param == window[0]
        assert len(a.points) == len(b.points)
        for p, q in zip(a.points, b.points):
            assert (p.param, p.state.tobytes(), p.residual_norm, p.det_sign, p.newton_iters_used) == (
                q.param, q.state.tobytes(), q.residual_norm, q.det_sign, q.newton_iters_used)


@pytest.mark.parametrize("kind, params, window", [
    ("ac", ModelParams(epsilon=0.5), (0.25, 0.7)),
    ("ch", ModelParams(epsilon=0.5, mu0=0.05), (0.25, 0.7)),
    ("acok", ModelParams(epsilon=0.3), (0.0, 700.0)),
], ids=["ac", "ch-mu0-0.05", "acok"])
def test_well_points_carry_their_start_det_sign(kind, params, window, monkeypatch):
    # models.TrivialBranch proves no eigenvalue of a well's Jacobian reaches
    # zero, so each point takes the start's det sign: the sign a fresh
    # factorization gives.  With the scan left out, each AC and ACOK
    # constant is factored only where _newton corrects it: each well once, at
    # its start, and the bifurcating branch once per point, the start's
    # factorization serving its first step.
    model = model_by_kind(kind, GridSpec(40))
    settings = default_settings(kind, param_min=window[0], param_max=window[1])
    factored = _count_factorizations(monkeypatch)
    monkeypatch.setattr(continuation, "detect_bifurcations_on_trivial", lambda *args: [])
    branches = compute_diagram(model, params, settings).branches
    monkeypatch.undo()
    wells = [b for b in branches if b.id != "trivial:" + next(
        tb.label for tb in model.trivial_branches(params) if tb.bifurcating)]
    (scanned,) = [b for b in branches if b not in wells]
    assert len(wells) == 2 and all(len(w.points) >= 30 for w in wells)
    for well in wells:
        for p in well.points:
            fresh = lu_factor(model.linearize(p.state, model.with_param(params, p.param)))
            assert p.det_sign == det_sign(fresh) == well.points[0].det_sign != 0
    if kind != "ch":  # CH's wells move with epsilon: Newton factors them
        assert {p.newton_iters_used for b in branches for p in b.points} == {0}
        assert len(factored) == len(scanned.points) + 2


def test_arclength_points_record_the_residual_at_their_own_state(arclength_branches):
    # The corrector's accepted residual is recorded without re-evaluation; it
    # must be the residual of the stored state at the stored parameter.
    for m, p, branch in arclength_branches:
        for pt in branch.points:
            fresh = _sup(m.residual(pt.state, m.with_param(p, pt.param)))
            assert pt.residual_norm == fresh


def test_arclength_points_record_the_det_sign_of_their_own_jacobian(arclength_branches):
    # The det sign is read off the tangent solve of the bordered system; it
    # must be the sign a factorization of the Jacobian itself gives.
    for m, p, branch in arclength_branches:
        for pt in branch.points:
            assert pt.det_sign == det_sign(lu_factor(m.jacobian(pt.state, m.with_param(p, pt.param))))
    # The fold toy's branch crosses its fold, where det(J) = 2*x1 changes sign.
    _, _, fold_branch = arclength_branches[-1]
    assert {pt.det_sign for pt in fold_branch.points} == {1, -1}


# ---------------------------------------------------------------------------
# detection on a trivial branch
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ac_detection():
    g = GridSpec(100)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.5)
    settings = default_settings("ac", param_min=0.3, param_max=0.7)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: np.zeros(g.n_nodes))
    return g, model, params, settings, bifs


def test_detection_finds_exactly_the_enumerated_crossings(ac_detection):
    _, _, _, _, bifs = ac_detection
    assert len(bifs) == 2
    detected = sorted(b.param for b in bifs)
    expected = sorted((ac_bifurcation(0, "sine").param_value, ac_bifurcation(1, "cosine").param_value))
    for d, e in zip(detected, expected):
        assert abs(d - e) / e <= 1e-3


def test_detection_classifies_modes(ac_detection):
    _, _, _, _, bifs = ac_detection
    tags = {(b.mode_family, b.mode_index) for b in bifs}
    assert tags == {("sine", 0), ("cosine", 1)}


def test_detection_null_modes_match_analytic(ac_detection):
    g, _, _, _, bifs = ac_detection
    for b in bifs:
        mode = eigenmode(b.mode_index, b.mode_family, g)
        corr = abs(float(b.null_mode @ mode))
        corr /= float(np.linalg.norm(b.null_mode) * np.linalg.norm(mode))
        assert corr >= 0.99


def test_detection_metadata(ac_detection):
    _, _, _, settings, bifs = ac_detection
    for b in bifs:
        assert b.bif_id.startswith("bp")
        assert settings.param_min < b.param < settings.param_max
        assert np.max(np.abs(b.base_state)) == 0.0


def test_detection_empty_on_stable_branch():
    g = GridSpec(80)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.5)
    settings = default_settings("ac", param_min=0.3, param_max=0.7)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: np.ones(g.n_nodes))
    assert bifs == []


@pytest.mark.parametrize(
    "kind, params",
    [
        ("ac", ModelParams(epsilon=0.5)),
        ("ch", ModelParams(epsilon=0.5)),
        ("ch", ModelParams(epsilon=0.5, mu0=0.05)),
        ("acok", ModelParams(epsilon=0.1)),
        ("acok", ModelParams(epsilon=0.3)),
    ],
    # Each id ends in the boundary closure, the symmetric folded Neumann one.
    ids=[
        "ac-symmetric",
        "ch-mu0-0-symmetric",
        "ch-mu0-0.05-symmetric",
        "acok-eps-0.1-symmetric",
        "acok-eps-0.3-symmetric",
    ],
)
def test_detection_empty_on_every_stable_branch(kind, params):
    # The engine scans only the branch flagged bifurcating; the wells must
    # have no det-sign event over the house windows (models.TrivialBranch
    # proves it for the constant states themselves).
    g = GridSpec(200)
    model = model_by_kind(kind, g)
    window = dict(param_min=0.0, param_max=3000.0) if kind == "acok" else {}
    settings = default_settings(kind, **window)
    stable = [tb for tb in model.trivial_branches(params) if not tb.bifurcating]
    assert len(stable) == 2
    for tb in stable:
        bifs = detect_bifurcations_on_trivial(
            model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), g))
        assert bifs == [], tb.label


# Events the scan found when a batched sign pass signed its first-level
# samples, before every probe went through det_sign(lu_factor(...)).
_BATCHED_SCAN_EVENTS = {
    (60, 0.0): (
        ("0x1.5cfe293e00000p+3", "sine", 4),
        ("0x1.246f6ea520000p+7", "sine", 0),
        ("0x1.197a04b9a8000p+9", "cosine", 1),
    ),
    (60, 0.37): (
        ("0x1.5cfe293866666p+3", "sine", 4),
        ("0x1.246f6ea4c6666p+7", "sine", 0),
        ("0x1.197a04b99199ap+9", "cosine", 1),
    ),
    (100, 0.0): (
        ("0x1.17d3cc7e00000p+3", "sine", 4),
        ("0x1.246f6f29a0000p+7", "sine", 0),
        ("0x1.197a0c5b68000p+9", "cosine", 1),
    ),
    (100, 0.37): (
        ("0x1.17d3cc8c66666p+3", "sine", 4),
        ("0x1.246f6f2946666p+7", "sine", 0),
        ("0x1.197a0c5b5199ap+9", "cosine", 1),
    ),
    (200, 0.0): (
        ("0x1.0e3ac79e00000p+3", "sine", 4),
        ("0x1.246f6f3c60000p+7", "sine", 0),
        ("0x1.197a0d6be8000p+9", "cosine", 1),
    ),
    (200, 0.37): (
        ("0x1.0e3ac79866666p+3", "sine", 4),
        ("0x1.246f6f3c06666p+7", "sine", 0),
        ("0x1.197a0d6bd199ap+9", "cosine", 1),
    ),
}


# The ids name the boundary closure, the symmetric folded Neumann one.
@pytest.mark.parametrize("shift", [0.0, 0.37], ids=["symmetric-from-zero", "symmetric-shifted"])
@pytest.mark.parametrize("n_cells", [60, 100, 200])
def test_batched_scan_signs_give_the_scalar_detection_bitwise(n_cells, shift):
    # Signing the scan's samples one at a time must find, bit for bit, the
    # events the batched pass found.  Only the signs could differ, and they
    # decide every bisection, so the params pin the whole detection.  A window
    # from gamma = 0 starts on a sample; the shifted one starts a fraction of
    # a step in, as the benchmark's seeds do.
    g = GridSpec(n_cells)
    model = model_by_kind("acok", g)
    params = ModelParams(epsilon=0.3, gamma=100.0)
    settings = default_settings("acok", param_min=shift * 10.0, param_max=700.0)
    state = np.full(g.n_nodes, 0.5)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: state)
    got = [(b.param.hex(), b.mode_family, b.mode_index) for b in bifs]
    assert got == list(_BATCHED_SCAN_EVENTS[n_cells, shift])
    assert [b.bif_id for b in bifs] == [f"bp{i}" for i in range(len(bifs))]
    for b in bifs:
        assert b.base_state.tobytes() == state.tobytes()


def _acok_detection(n_cells, lo, hi):
    """Detection on ACOK's phi = 1/2 branch at gamma 100, epsilon 0.3, as comparable bytes."""
    g = GridSpec(n_cells)
    model = model_by_kind("acok", g)
    params = ModelParams(epsilon=0.3, gamma=100.0)
    settings = default_settings("acok", param_min=lo, param_max=hi)
    state = np.full(g.n_nodes, 0.5)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: state)
    return [(b.bif_id, b.param.hex(), b.mode_family, b.mode_index, b.null_mode.tobytes()) for b in bifs]


def _spy_on_passes(monkeypatch, scalar=False) -> list:
    """Log the size of every ``band_det_pass``; with ``scalar``, take none (every probe one at a time)."""
    sizes = []

    def logged_pass(systems, count):
        sizes.append(count)
        return linalg.band_det_pass(systems, count)

    monkeypatch.setattr(continuation, "band_det_pass", logged_pass)
    if scalar:
        monkeypatch.setattr(continuation, "pass_size", lambda system, count: 0)
    return sizes


@pytest.mark.parametrize("shift", [0.0, 0.37], ids=["from-zero", "shifted"])
@pytest.mark.parametrize("n_cells", [40, 100, 200])
def test_detection_in_band_passes_is_the_scalar_detection_bitwise(monkeypatch, n_cells, shift):
    lo = shift * 10.0
    passes = _spy_on_passes(monkeypatch)
    got = _acok_detection(n_cells, lo, 700.0)
    assert passes == [141]  # 71 samples and 70 midpoints
    monkeypatch.undo()
    _spy_on_passes(monkeypatch, scalar=True)
    assert got == _acok_detection(n_cells, lo, 700.0)
    assert len(got) == 3


def test_gate_window_detection_in_several_passes_is_the_scalar_detection_bitwise(monkeypatch):
    # The N=200 gate window [0, 3000]: 301 samples and 300 midpoints, four
    # passes within the byte budget.
    passes = _spy_on_passes(monkeypatch)
    got = _acok_detection(200, 0.0, 3000.0)
    assert passes == [151, 151, 151, 148]
    monkeypatch.undo()
    _spy_on_passes(monkeypatch, scalar=True)
    assert got == _acok_detection(200, 0.0, 3000.0)
    assert len(got) == len(acok_bifurcations_in_range(0.3, 0.0, 3000.0))


def test_window_below_the_minimum_pass_size_is_signed_one_probe_at_a_time(monkeypatch):
    # [0, 150] at step 10: 16 samples and 15 midpoints, fewer than a pass takes.
    assert 16 + 15 < linalg.MIN_PASS_SYSTEMS
    passes = _spy_on_passes(monkeypatch)
    factored = _count_factorizations(monkeypatch)
    got = _acok_detection(100, 0.0, 150.0)
    assert passes == [] and len(factored) >= 31
    assert [(family, index) for _, _, family, index, _ in got] == [("sine", 4), ("sine", 0)]
    monkeypatch.undo()
    _spy_on_passes(monkeypatch, scalar=True)
    assert got == _acok_detection(100, 0.0, 150.0)


@pytest.mark.parametrize("kind, mu0, lo, hi, step, first_level", [
    ("ac", 0.0, 0.095, 0.4, 0.005, 123),  # ac-slice's window: 62 samples and 61 midpoints
    ("ch", 0.05, 0.25, 0.7, 0.01, 91),  # ac-arclength's window: 46 and 45
], ids=["ac", "ch-mu0-0.05"])
@pytest.mark.parametrize("n_cells", [40, 100, 200])
def test_ac_ch_detection_in_tridiagonal_passes_is_the_scalar_detection_bitwise(
    monkeypatch, kind, mu0, lo, hi, step, first_level, n_cells
):
    def detect():
        bifs = _detect_on_bifurcating_branch(kind, n_cells, ModelParams(epsilon=0.3, mu0=mu0), step, lo, hi)
        return [(b.bif_id, b.param.hex(), b.mode_family, b.mode_index, b.null_mode.tobytes()) for b in bifs]

    passes = _spy_on_passes(monkeypatch)
    got = detect()
    assert passes == [first_level]
    monkeypatch.undo()
    _spy_on_passes(monkeypatch, scalar=True)
    assert got == detect()
    assert len(got) >= 2


def test_no_first_level_scan_probe_goes_through_lu_factor(monkeypatch):
    # Every first-level sample and midpoint is signed in a pass; lu_factor
    # sees only the bisections' probes and the events' factorizations.  (At
    # gamma = 0 the band needs a boost, so a window from 0 factors that one
    # sample one at a time; this one starts a fraction of a step in.)
    g = GridSpec(100)
    model = model_by_kind("acok", g)
    built = []  # (gamma, system) of every linearization, kept alive so identity is unambiguous

    def logged_linearize(state, params):
        system = type(model).linearize(model, state, params)
        built.append((params.gamma, system))
        return system

    monkeypatch.setattr(model, "linearize", logged_linearize)
    factored = _count_factorizations(monkeypatch)
    lo, hi, step = 3.7, 700.0, 10.0
    settings = default_settings("acok", param_min=lo, param_max=hi, initial_step=step)
    state = np.full(g.n_nodes, 0.5)
    bifs = detect_bifurcations_on_trivial(model, ModelParams(epsilon=0.3, gamma=100.0), settings, lambda p: state)
    samples = [lo]
    while samples[-1] + step < hi - 1e-12 * (hi - lo):
        samples.append(samples[-1] + step)
    samples.append(hi)
    first_level = set(samples) | {0.5 * (a + b) for a, b in zip(samples[:-1], samples[1:])}
    assert len(first_level) == 141
    probed = [gamma for gamma, system in built if any(system is m for m in factored)]
    assert len(probed) == len(factored) > 0
    assert not first_level & set(probed)
    assert [(b.param.hex(), b.mode_family, b.mode_index) for b in bifs] == list(_BATCHED_SCAN_EVENTS[100, 0.37])


# AC and CH events of plain det-sign bisection (every midpoint probed), on
# the benchmark's CH N=800 scan and AC slice configurations: the reference
# window and one seeded shift of its lower end.
_CH_SCAN = dict(kind="ch", n_cells=800, params=ModelParams(epsilon=0.3, mu0=0.05), step=0.05, hi=0.7)
_AC_SLICE = dict(kind="ac", n_cells=100, params=ModelParams(epsilon=0.1), step=0.005, hi=0.4)
_PLAIN_BISECTION_EVENTS = {
    ("ch", 0.25): (
        ("0x1.45efd09233334p-2", "cosine", 1),
        ("0x1.45bfb2a480000p-1", "sine", 0),
    ),
    ("ch", 0.2553968817924836): (
        ("0x1.45efd09232460p-2", "cosine", 1),
        ("0x1.45bfb2a47f896p-1", "sine", 0),
    ),
    ("ac", 0.095): (
        ("0x1.b299a97f5c290p-4", "cosine", 3),
        ("0x1.04c28196147aep-3", "sine", 2),
        ("0x1.45f311f75c290p-3", "cosine", 2),
        ("0x1.b299632a8f5c8p-3", "sine", 1),
        ("0x1.45f3078e3d70cp-2", "cosine", 1),
    ),
    ("ac", 0.09640280981587059): (
        ("0x1.b299a97ebf2b0p-4", "cosine", 3),
        ("0x1.04c28195c5fc0p-3", "sine", 2),
        ("0x1.45f311f70daa2p-3", "cosine", 2),
        ("0x1.b299632a40dd6p-3", "sine", 1),
        ("0x1.45f3078e16314p-2", "cosine", 1),
    ),
}


def _detect_on_bifurcating_branch(kind, n_cells, params, step, lo, hi):
    g = GridSpec(n_cells)
    model = model_by_kind(kind, g)
    settings = default_settings(kind, param_min=lo, param_max=hi, initial_step=step, max_step=max(step, 4e-3))
    (tb,) = [t for t in model.trivial_branches(params) if t.bifurcating]
    return detect_bifurcations_on_trivial(
        model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), g))


@pytest.mark.parametrize("config, lo", [
    (_CH_SCAN, 0.25), (_CH_SCAN, 0.2553968817924836), (_AC_SLICE, 0.095), (_AC_SLICE, 0.09640280981587059),
], ids=["ch-n800", "ch-n800-shifted", "ac-slice", "ac-slice-shifted"])
def test_detection_gives_the_plain_bisection_events_bitwise(config, lo):
    # Regula falsi only places the probes; the bisection it replays must
    # land on the very bits that probing every midpoint gave.
    bifs = _detect_on_bifurcating_branch(lo=lo, **config)
    got = [(b.param.hex(), b.mode_family, b.mode_index) for b in bifs]
    assert got == list(_PLAIN_BISECTION_EVENTS[config["kind"], lo])


def _count_factorizations(monkeypatch) -> list:
    """Log the matrix of every ``lu_factor`` call the engine makes; returns the log."""
    factored = []

    def counting_lu_factor(matrix, *args, **kwargs):
        factored.append(matrix)
        return lu_factor(matrix, *args, **kwargs)

    monkeypatch.setattr(continuation, "lu_factor", counting_lu_factor)
    return factored


def test_detection_on_the_ch_n800_scan_makes_at_most_37_factorizations(monkeypatch):
    # 17 scan probes, the two events' bisections and one factorization per
    # event for its null mode.  Probing every bisection midpoint took 81.
    factored = _count_factorizations(monkeypatch)
    bifs = _detect_on_bifurcating_branch(lo=0.25, **_CH_SCAN)
    assert len(factored) <= 37
    got = [(b.param.hex(), b.mode_family, b.mode_index) for b in bifs]
    assert got == list(_PLAIN_BISECTION_EVENTS["ch", 0.25])


class DiagonalToy:
    """Toy model on a real grid: J(mu) = diag(entries(mu)), held as a
    tridiagonal band, so det(J) is the product of the entries."""

    def __init__(self, entries):
        self.grid = GridSpec(4)
        self.entries = entries

    def with_param(self, params, value):
        return float(value)

    def linearize(self, state, mu):
        band = np.zeros((self.grid.n_nodes, 3))
        band[:, 1] = 1.0
        values = self.entries(mu)
        band[: len(values), 1] = values
        return BandBorder(band=band, kl=1)


def _toy_detection(model, monkeypatch, plain=False):
    """Events and factorization count; ``plain`` probes every bisection midpoint."""
    factored = _count_factorizations(monkeypatch)
    if plain:
        monkeypatch.setattr(continuation, "REGULA_FALSI_STEPS", 0)
    settings = default_settings("ac", param_min=0.0, param_max=1.0, initial_step=0.25, max_step=0.25)
    bifs = detect_bifurcations_on_trivial(model, None, settings, lambda p: np.zeros(model.grid.n_nodes))
    return [b.param for b in bifs], len(factored), settings


def test_crossing_on_a_bisection_midpoint_is_returned_as_plain_bisection_does(monkeypatch):
    # 0.40625 is the third midpoint of the scan step [0.25, 0.5]: the det is
    # exactly 0 there, so bisection stops on it.
    model = DiagonalToy(lambda mu: [mu - 0.40625])
    got, _, _ = _toy_detection(model, monkeypatch)
    plain, _, _ = _toy_detection(model, monkeypatch, plain=True)
    assert got == plain == [0.40625]


def test_three_crossings_in_one_scan_step_give_an_event_with_a_sign_change(monkeypatch):
    # Plain bisection of the scan step [0.25, 0.5] ends at 0.46, regula
    # falsi heads for 0.27 and the replay stays there.  Either event must
    # sit on a sign change of det.
    crossings = (0.27, 0.28, 0.46)
    model = DiagonalToy(lambda mu: [mu - c for c in crossings])
    got, _, settings = _toy_detection(model, monkeypatch)
    plain, _, _ = _toy_detection(model, monkeypatch, plain=True)
    assert len(got) == len(plain) == 1 and got != plain
    width = settings.bisection_width
    for loc in got + plain:
        below = det_sign(lu_factor(model.linearize(None, loc - width), pivot_rtol=0.0))
        above = det_sign(lu_factor(model.linearize(None, loc + width), pivot_rtol=0.0))
        assert below * above == -1
        assert min(abs(loc - c) for c in crossings) <= width


def test_slow_regula_falsi_still_gives_the_plain_bisection_event(monkeypatch):
    # A triple root: regula falsi creeps towards it from one side, the cap
    # stops it, and the replayed bisection finishes the job.
    cap = continuation.REGULA_FALSI_STEPS
    model = DiagonalToy(lambda mu: [(mu - 0.3141592653589793) ** 3])
    got, count, _ = _toy_detection(model, monkeypatch)
    plain, plain_count, _ = _toy_detection(model, monkeypatch, plain=True)
    assert got == plain and len(got) == 1
    assert count <= plain_count + cap


def _unprojected_null_vector(fact):
    """``null_vector`` without its parity projection: one solve, scaled and sign-fixed."""
    start = np.random.default_rng(1790).standard_normal(linalg._order(fact))
    w = lu_solve(fact, start / np.linalg.norm(start))
    return linalg._fix_sign(w / np.linalg.norm(w))


def test_event_modes_of_bands_that_are_not_their_own_mirror_are_not_projected(monkeypatch):
    # The toy's diagonal is not a palindrome: its event modes are the one
    # solve's, as they always were.
    modes = []
    null_vector = continuation.null_vector

    def recording_null_vector(fact):
        modes.append((fact, null_vector(fact)))
        return modes[-1][1]

    monkeypatch.setattr(continuation, "null_vector", recording_null_vector)
    _toy_detection(DiagonalToy(lambda mu: [mu - 0.3141592653589793, 2.0 * mu - 1.5]), monkeypatch)
    assert len(modes) == 2
    for fact, mode in modes:
        assert not isinstance(fact, linalg.ParityLuFactorization)
        assert mode.tobytes() == _unprojected_null_vector(fact).tobytes()


@pytest.mark.parametrize("kind", ["acok", "acok-phi"])
def test_acok_event_modes_come_off_one_parity_block(kind):
    # ACOK's augmented band at a constant state is its own mirror under the
    # reversal of its node pairs: each event's factorization is held as its
    # two parity blocks, and its null mode is the larger block solve,
    # exactly R-even (cosine) or R-odd (sine).  The phi form has the same
    # band bit for bit there.
    g = GridSpec(40)
    model = model_by_kind("acok", g)
    model = model.engine() if kind == "acok" else model
    level = model.trivial_branches(ModelParams(epsilon=0.3))[1].value_of(None)
    factored = []

    def recording_null_vector(fact):
        factored.append(fact)
        return linalg.null_vector(fact)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuation, "null_vector", recording_null_vector)
        bifs = detect_bifurcations_on_trivial(
            model, ModelParams(epsilon=0.3), default_settings("acok", param_max=700.0),
            lambda p: np.full(g.n_nodes, level))
    assert len(bifs) == 3 and len(factored) == 3
    for bif, fact in zip(bifs, factored):
        assert isinstance(fact, linalg.ParityLuFactorization)
        mode = bif.null_mode
        assert np.array_equal(mode[::-1], mode if bif.mode_family == "cosine" else -mode), bif.bif_id


# ---------------------------------------------------------------------------
# branch switching
# ---------------------------------------------------------------------------


def _trace_every_side(monkeypatch):
    """Turn off every symmetry image, the centre's and the reflection, for the rest of the test."""
    monkeypatch.setattr(continuation, "_pitchfork_image", lambda model, params, bif: None)


def _count_traces(monkeypatch) -> list:
    """Log the branch id of every ``trace_branch`` call the engine makes; returns the log."""
    traced = []
    trace_branch = continuation.trace_branch

    def counting_trace_branch(*args, **kwargs):
        traced.append(kwargs["branch_id"])
        return trace_branch(*args, **kwargs)

    monkeypatch.setattr(continuation, "trace_branch", counting_trace_branch)
    return traced


def test_branch_switch_produces_bitwise_mirror_offshoots(ac_detection, monkeypatch):
    # Both sides traced: the Z2 image the odd-model shortcut relies on.
    g, model, params, settings, bifs = ac_detection
    sine0 = [b for b in bifs if b.mode_family == "sine"][0]
    _trace_every_side(monkeypatch)
    sides = branch_switch(model, params, settings, sine0)
    assert len(sides) == 2
    plus, minus = sides
    assert plus.origin.sign == 1 and minus.origin.sign == -1
    assert plus.id.endswith("+") and minus.id.endswith("-")
    assert len(plus.points) == len(minus.points)
    for p, m in zip(plus.points, minus.points):
        assert p.param == m.param
        assert np.array_equal(p.state, -m.state)


@pytest.fixture(scope="module", params=["ac", "ac-arclength", "ch-mu0-0"])
def odd_case(request, ac_detection):
    """(model, params, settings, bifurcations) of a model whose residual is odd."""
    g, model, params, settings, bifs = ac_detection
    if request.param == "ac-arclength":
        return model, params, replace(settings, use_pseudo_arclength=True), bifs
    if request.param == "ac":
        return model, params, settings, bifs
    ch = model_by_kind("ch", g)
    ch_params = ModelParams(epsilon=0.5, mu0=0.0)
    ch_settings = default_settings("ch", param_min=0.3, param_max=0.7)
    tb = next(b for b in ch.trivial_branches(ch_params) if b.bifurcating)
    ch_bifs = detect_bifurcations_on_trivial(
        ch, ch_params, ch_settings, lambda pv: tb.state_of(ch.with_param(ch_params, pv), g))
    return ch, ch_params, ch_settings, ch_bifs


def test_mirrored_offshoot_is_the_traced_one_bit_for_bit(odd_case, monkeypatch):
    model, params, settings, bifs = odd_case
    assert model.symmetry_center(params) == 0.0 and len(bifs) == 2
    traced = _count_traces(monkeypatch)
    mirrored = [branch_switch(model, params, settings, bif) for bif in bifs]
    assert traced == [f"{bif.bif_id}+" for bif in bifs]
    _trace_every_side(monkeypatch)
    both = [branch_switch(model, params, settings, bif) for bif in bifs]
    for got, want in zip(mirrored, both):
        assert [b.id for b in got] == [b.id for b in want] and len(got) == 2
        for a, b in zip(got, want):
            assert (a.origin, a.stop_reason, len(a.points)) == (b.origin, b.stop_reason, len(b.points))
            for p, q in zip(a.points, b.points):
                # tobytes: a -0.0 where the trace has +0.0 fails here
                assert p.state.tobytes() == q.state.tobytes()
                assert (p.param, p.residual_norm, p.det_sign, p.newton_iters_used) == (
                    q.param, q.residual_norm, q.det_sign, q.newton_iters_used)


def test_negated_offshoot_shares_the_anchor_and_keeps_zeros_positive():
    # A traced - side gets +0.0 wherever the + side has +0.0 (0.0 + -0.0 is
    # +0.0), so the negation must not turn them into -0.0.
    anchor = BranchPoint(param=0.5, state=np.zeros(3), residual_norm=0.0, det_sign=1, newton_iters_used=0)
    point = BranchPoint(param=0.4, state=np.array([0.0, 1.5, -2.0]), residual_norm=3e-12, det_sign=-1,
                        newton_iters_used=3)
    plus = Branch("bp0+", BranchOrigin("switched", "bp0", 1), [anchor, point], stop_reason="slice")
    odd_model = type("Odd", (), {"symmetry_center": lambda self, params: 0.0})()
    bif = continuation.BifurcationPoint("bp0", 0.5, np.zeros(3), np.array([0.5, 1.0, 0.5]), "cosine", 0)
    g = continuation._pitchfork_image(odd_model, None, bif)
    minus = continuation._image(plus, "bp0", g)
    assert (minus.id, minus.origin, minus.stop_reason) == ("bp0-", BranchOrigin("switched", "bp0", -1), "slice")
    assert minus.image == (plus, g) and minus.points[0] is anchor
    got = minus.points[1]
    assert got.state.tobytes() == np.array([0.0, -1.5, 2.0]).tobytes()
    assert (got.param, got.residual_norm, got.det_sign, got.newton_iters_used) == (0.4, 3e-12, -1, 3)
    assert point.state.tobytes() == np.array([0.0, 1.5, -2.0]).tobytes()
    assert continuation._image(None, "bp0", g) is None


def _ch_offset_events(n_cells, mu0, lo, hi):
    """(model, params, settings, bifurcations) of CH with an offset over eps in [lo, hi]."""
    g = GridSpec(n_cells)
    model, params = model_by_kind("ch", g), ModelParams(epsilon=0.5, mu0=mu0)
    settings = default_settings("ch", param_min=lo, param_max=hi)
    tb = next(b for b in model.trivial_branches(params) if b.bifurcating)
    bifs = detect_bifurcations_on_trivial(
        model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), g))
    return model, params, settings, bifs


def _is_odd(mode):
    return np.array_equal(mode[::-1], -mode)


@pytest.mark.parametrize("kind", ["acok", "ch-mu0-0.05"])
def test_branch_switch_traces_both_sides_of_models_that_are_not_odd(kind, monkeypatch):
    # Neither model has a center: ACOK in phi only to rounding (1 - phi
    # rounds; its engine form in u is odd), CH with an offset not at all.
    # An exactly odd mode's - side is the reversal of the + side, and an
    # even mode's two sides are traced.
    if kind == "acok":
        g = GridSpec(40)
        model, params = model_by_kind("acok", g), ModelParams(epsilon=0.3)
        settings = default_settings("acok", param_min=0.0, param_max=700.0)
        tb = next(b for b in model.trivial_branches(params) if b.bifurcating)
        bifs = detect_bifurcations_on_trivial(
            model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), g))
    else:
        model, params, settings, bifs = _ch_offset_events(40, 0.05, 0.3, 0.7)
    assert sorted(_is_odd(bif.null_mode) for bif in bifs)[:2] == [False, True]
    assert model.symmetry_center(params) is None
    traced = _count_traces(monkeypatch)
    for bif in bifs:
        traced.clear()
        sides = branch_switch(model, params, settings, bif)
        assert [b.id for b in sides] == [f"{bif.bif_id}+", f"{bif.bif_id}-"]
        one_side = _is_odd(bif.null_mode)
        assert traced == ([f"{bif.bif_id}+"] if one_side else [f"{bif.bif_id}+", f"{bif.bif_id}-"])


@pytest.mark.parametrize("mu0, lo, hi", [(0.05, 0.1, 0.7), (0.3, 0.1, 0.6)])
@pytest.mark.parametrize("n_cells", [40, 100, 200])
def test_ch_offset_reflection_images_match_the_model_along_whole_branches(n_cells, mu0, lo, hi):
    # The - branch of an odd-mode CH pitchfork is the reversal R of its +
    # branch with every other field copied.  That is exact because the
    # residual commutes with R bit for bit, and the det sign of R J R is
    # that of J, as a fresh factorization at each image state confirms.
    model, params, settings, bifs = _ch_offset_events(n_cells, mu0, lo, hi)
    diagram = compute_diagram(model, params, settings)
    images = [b for b in diagram.branches if b.image is not None]
    assert [b.id for b in images] == [f"{bif.bif_id}-" for bif in bifs if _is_odd(bif.null_mode)]
    imaged = 0
    for minus in images:
        plus, _ = minus.image
        assert plus.id == minus.id[:-1] + "+" and minus.stop_reason == plus.stop_reason
        assert minus.points[0] is plus.points[0] and len(minus.points) == len(plus.points)
        for p, m in zip(plus.points[1:], minus.points[1:]):
            at = model.with_param(params, m.param)
            assert m.state.tobytes() == p.state[::-1].tobytes()
            assert model.residual(m.state, at).tobytes() == model.residual(p.state, at)[::-1].tobytes()
            assert det_sign(lu_factor(model.linearize(m.state, at))) == m.det_sign
            assert (m.param, m.residual_norm, m.newton_iters_used) == (p.param, p.residual_norm, p.newton_iters_used)
            imaged += 1
    assert imaged == (192 if mu0 == 0.05 else 52)
    # Each image branch runs from its pitchfork down to lo, so every slice
    # below the pitchfork holds both partners.
    for at in (0.12, 0.15, 0.2):
        states = {s.branch_id: s.state for s in solutions_at(diagram, at, model, settings)}
        for minus in images:
            if minus.points[0].param > at:
                assert states[minus.id].tobytes() == states[minus.image[0].id][::-1].tobytes()


@pytest.fixture(scope="module")
def acok_events():
    """n_cells -> (model, params, settings, bifurcations) of ACOK in u at eps=0.3 over gamma in [0, 700]."""
    found = {}

    def events(n_cells):
        if n_cells not in found:
            g = GridSpec(n_cells)
            model, params = model_by_kind("acok", g).engine(), ModelParams(epsilon=0.3)
            settings = default_settings("acok", param_min=0.0, param_max=700.0)
            tb = next(b for b in model.trivial_branches(params) if b.bifurcating)
            bifs = detect_bifurcations_on_trivial(
                model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), g))
            found[n_cells] = (model, params, settings, bifs)
        return found[n_cells]

    return events


@pytest.mark.parametrize("arclength", [False, True], ids=["natural", "arclength"])
@pytest.mark.parametrize("n_cells", [40, 100])
def test_acok_image_offshoots_match_the_traced_ones(acok_events, n_cells, arclength, monkeypatch):
    # In u = 2 phi - 1 ACOK is odd bit for bit, as AC is: tracing the - side
    # gives exactly the negation of the + side, at the same params, with the
    # same det signs, residuals and iteration counts.  The image is that.
    model, params, settings, bifs = acok_events(n_cells)
    settings = replace(settings, use_pseudo_arclength=arclength)
    assert model.symmetry_center(params) == 0.0 and len(bifs) == 3
    traced = _count_traces(monkeypatch)
    imaged = [branch_switch(model, params, settings, bif) for bif in bifs]
    assert traced == [f"{bif.bif_id}+" for bif in bifs]
    _trace_every_side(monkeypatch)
    both = [branch_switch(model, params, settings, bif) for bif in bifs]
    for got, want in zip(imaged, both):
        assert [b.id for b in got] == [b.id for b in want] and len(got) == 2
        for a, b in zip(got, want):
            assert (a.origin, a.stop_reason, len(a.points)) == (b.origin, b.stop_reason, len(b.points))
            for p, q in zip(a.points, b.points):
                assert p.state.tobytes() == q.state.tobytes()
                assert (p.param, p.residual_norm, p.det_sign, p.newton_iters_used) == (
                    q.param, q.residual_norm, q.det_sign, q.newton_iters_used)
        plus, minus = got
        assert minus.image[0] is plus and minus.points[0] is plus.points[0]
        for p, m in zip(plus.points[1:], minus.points[1:]):
            assert m.state.tobytes() == (0.0 - p.state).tobytes()


def test_acok_image_of_no_branch_is_none(acok_events):
    model, params, _, bifs = acok_events(40)
    g = continuation._pitchfork_image(model, params, bifs[0])
    assert g is not None and continuation._image(None, "bp0", g) is None


def _minus_points_against_fresh_factorizations(model, params, diagram) -> int:
    checked = 0
    for minus in (b for b in diagram.branches if b.id.endswith("-")):
        for m in minus.points:
            params_at = model.with_param(params, m.param)
            assert m.det_sign == det_sign(lu_factor(model.linearize(m.state, params_at)))
            checked += 1
    return checked


def test_acok_image_points_carry_the_det_sign_of_their_own_jacobian(acok_events):
    # F_u(-u) = -F_u(u) gives J(-u) = J(u), so each image point takes its +
    # point's det sign; a factorization at its own state agrees.
    model, params, settings, _ = acok_events(40)
    diagram = compute_diagram(model, params, settings)
    assert _minus_points_against_fresh_factorizations(model, params, diagram) > 0
    # the acok-slice benchmark's model and window at N=100, as a full diagram
    # (a slice diagram reads no det sign)
    g = GridSpec(100)
    model, params = model_by_kind("acok", g).engine(), ModelParams(epsilon=0.3, gamma=100.0)
    diagram = compute_diagram(model, params, default_settings("acok", param_min=0.0, param_max=700.0))
    assert _minus_points_against_fresh_factorizations(model, params, diagram) > 0


@pytest.mark.parametrize("n_cells", [40, 100, 200])
def test_acok_offshoots_are_exactly_reflection_even_or_odd(acok_events, n_cells):
    # Each null mode at u = 0 comes off one parity block, so it is exactly
    # R-even or R-odd; every Newton iterate, predictor and slice correction
    # of its offshoots keeps that parity, so every point is exact too, and
    # its - partner is its exact negation with the residual negated.
    if n_cells == 200:
        g = GridSpec(200)
        model, params = model_by_kind("acok", g).engine(), ModelParams(epsilon=0.3)
        settings = default_settings("acok", param_min=0.0, param_max=700.0)
    else:
        model, params, settings, _ = acok_events(n_cells)
    diagram = compute_diagram(model, params, settings)
    offshoots = [b for b in diagram.branches if b.origin.kind == "switched"]
    assert len(offshoots) == 6
    points = 0
    for b in offshoots:
        parity = {bool(np.array_equal(p.state[::-1], p.state)) for p in b.points[1:]}
        odd = {bool(np.array_equal(p.state[::-1], -p.state)) for p in b.points[1:]}
        assert len(parity) == 1 and len(odd) == 1 and parity != odd, b.id
        points += len(b.points) - 1
        if b.image is not None:
            plus = b.image[0]
            for p, m in zip(plus.points[1:], b.points[1:]):
                at = model.with_param(params, m.param)
                assert m.state.tobytes() == (0.0 - p.state).tobytes()
                assert model.residual(m.state, at).tobytes() == (0.0 - model.residual(p.state, at)).tobytes()
    assert points > 50
    for s in solutions_at(diagram, 100.0, model, settings):
        assert np.array_equal(s.state[::-1], s.state) or np.array_equal(s.state[::-1], -s.state)


def test_branch_switch_offshoot_grows_from_zero(ac_detection):
    g, model, params, settings, bifs = ac_detection
    sine0 = [b for b in bifs if b.mode_family == "sine"][0]
    branch = branch_switch(model, params, settings, sine0)[0]
    # anchor first, then amplitudes grow monotonically away from the crossing
    sups = np.array([np.max(np.abs(p.state)) for p in branch.points])
    assert sups[0] <= 1e-12
    assert sups[-1] == sups.max()
    assert branch.points[-1].param == pytest.approx(0.3, abs=1e-9)
    assert branch.origin.describe() == f"switched_from({sine0.bif_id}+)"


def test_branch_switch_traces_from_the_seed_s_own_factorization(ac_detection, monkeypatch):
    # The seed's Newton correction ends by factoring the Jacobian at the
    # seed; natural tracing predicts from that factorization instead of
    # factoring the same matrix again, and traces the same bits.  AC is odd,
    # so only the + side is traced, and the - side is its negation.
    g, model, params, settings, bifs = ac_detection
    sine0 = [b for b in bifs if b.mode_family == "sine"][0]
    factored = _count_factorizations(monkeypatch)
    sides = branch_switch(model, params, settings, sine0)
    digests = [hashlib.sha256(m.band.tobytes()).hexdigest() for m in factored]
    assert len(sides) == 2 and all(a != b for a, b in zip(digests, digests[1:]))
    reused = len(factored)
    trace_branch = continuation.trace_branch
    monkeypatch.setattr(continuation, "trace_branch", lambda *a, _fact=None, **kw: trace_branch(*a, **kw))
    traced = _count_traces(monkeypatch)
    factored.clear()
    again = branch_switch(model, params, settings, sine0)
    assert traced == [f"{sine0.bif_id}+"]
    assert len(factored) == reused + len(traced)  # one refactor per traced side
    for side, other in zip(sides, again):
        assert [p.param for p in side.points] == [p.param for p in other.points]
        assert all(np.array_equal(p.state, q.state) for p, q in zip(side.points, other.points))


def _last_newton_failure(model, seeds, settings) -> str:
    """The reason ``_newton`` raises on the last of ``seeds`` ((params, guess) pairs) that fails."""
    reason = "none"
    for params_at, guess in seeds:
        try:
            continuation._newton(model, params_at, guess, settings)
        except NewtonFailure as exc:
            reason = exc.reason
    return reason


def test_branch_switch_warns_once_when_neither_side_yields_a_branch(caplog, monkeypatch):
    # An unreachable Newton tolerance fails every seed or pulls it back onto
    # the trivial state, on both sides of every crossing.  The residual then
    # stalls at rounding level, so whether a seed ends as no_convergence or
    # diverged is rounding noise: the message must name what ``_newton``
    # raises on each side's seeds, whichever it is.
    g = GridSpec(40)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.2)
    settings = default_settings("ac", param_min=0.15, param_max=0.5, newton_tol=1e-30)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: np.zeros(g.n_nodes))
    bif = bifs[0]
    seeds = []
    newton = continuation._newton

    def recording_newton(model_, params_at, guess, settings_, signed=True):
        seeds.append((params_at, guess))
        return newton(model_, params_at, guess, settings_, signed=signed)

    monkeypatch.setattr(continuation, "_newton", recording_newton)
    with caplog.at_level("INFO", logger="phase_bifurcate"):
        assert branch_switch(model, params, settings, bif) == []
    monkeypatch.undo()
    assert seeds  # the + side's; the - side's seeds are their negations
    plus = _last_newton_failure(model, seeds, settings)
    minus = _last_newton_failure(model, [(p, -guess) for p, guess in seeds], settings)
    assert {plus, minus} <= {"no_convergence", "diverged"}
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert f"branch switch at {bif.bif_id} (param={bif.param!r}) produced no branch" in message
    assert f"+ side: last Newton failure {plus}," in message
    assert f"- side: last Newton failure {minus}," in message


def test_branch_switch_with_surviving_sides_does_not_warn(ac_detection, caplog):
    g, model, params, settings, bifs = ac_detection
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        for bif in bifs:
            assert len(branch_switch(model, params, settings, bif)) == 2
    assert caplog.records == []


class CubicToy:
    """F(x) = x*(lam + x*x) per entry: a pitchfork whose branch amplitude is sqrt(-lam)."""

    def __init__(self, lam):
        self.lam = lam

    def residual(self, state, params):
        return state * (self.lam + state * state)


@pytest.mark.parametrize("lam, top, want", [(-1.0 / 16.0, 1.0, 0.25), (-1.0 / 16.0, 3.0, 0.1875), (0.0, 0.5, 0.5 * 2.0**-19)])
def test_seed_amplitude_picks_the_smallest_residual_ratio(lam, top, want):
    # sup|F|/a is smallest on the rung next to the branch amplitude
    # sqrt(-lam) = 0.25; with no branch (lam = 0) it falls all the way down
    # the ladder.
    direction = np.array([0.0, -0.5, 1.0])
    assert continuation._seed_amplitude(CubicToy(lam), None, np.zeros(3), direction, top) == want


def test_seed_amplitude_takes_the_top_of_a_ladder_of_ties():
    linear = type("Linear", (), {"residual": lambda self, state, params: 3.0 * state})()
    assert continuation._seed_amplitude(linear, None, np.zeros(2), np.array([1.0, 0.25]), 0.375) == 0.375


def _log_seeds(monkeypatch) -> list:
    """Log every seed ``branch_switch`` corrects, in order; returns the log.

    Each entry is a dict: ``direction`` (the signed sup-normalized null
    mode), ``tried`` (sup|state - base| of every state ``_seed_amplitude``
    evaluated: the amplitudes themselves when the base is 0), ``picked``,
    ``param``, ``outcome`` ("converged" or the NewtonFailure reason),
    ``iters`` and, when converged, ``state``.  Corrections made while tracing
    or checking a symmetry image are not logged.
    """
    seeds, tracing = [], []
    pick, newton = continuation._seed_amplitude, continuation._newton
    trace, check = continuation.trace_branch, continuation._image

    def logging_pick(model, params_at, base, direction, top):
        tried = []

        class Recording:
            def residual(self, state, params_):
                tried.append(_sup(state - base))
                return model.residual(state, params_)

        picked = pick(Recording(), params_at, base, direction, top)
        seeds.append(dict(direction=direction, tried=tried, picked=picked))
        return picked

    def logging_newton(model, params_at, guess, settings, *sign, signed=True):
        if tracing:
            return newton(model, params_at, guess, settings, *sign, signed=signed)
        seed = seeds[-1]
        seed["param"] = model.active_value(params_at)
        try:
            point, fact = newton(model, params_at, guess, settings, *sign, signed=signed)
        except NewtonFailure as exc:
            seed.update(outcome=exc.reason, iters=exc.iterations)
            raise
        seed.update(outcome="converged", iters=point.newton_iters_used, state=point.state)
        return point, fact

    monkeypatch.setattr(continuation, "_seed_amplitude", logging_pick)
    monkeypatch.setattr(continuation, "_newton", logging_newton)
    monkeypatch.setattr(continuation, "trace_branch", _flagged(tracing, trace))
    monkeypatch.setattr(continuation, "_image", _flagged(tracing, check))
    return seeds


def _flagged(flag: list, fn):
    """``fn``, with ``flag`` non-empty while a call to it runs."""

    def call(*args, **kwargs):
        flag.append(True)
        try:
            return fn(*args, **kwargs)
        finally:
            flag.pop()

    return call


def _acok_switch_seeds(n_cells, monkeypatch, every_side=True) -> list:
    """(bifurcation, offshoots, logged seeds) of each ACOK event at eps=0.3 over gamma in [0, 700].

    With ``every_side`` both sides are seeded and traced; without, the -
    side is the negation of the + side.
    """
    g = GridSpec(n_cells)
    model, params = model_by_kind("acok", g).engine(), ModelParams(epsilon=0.3)
    if every_side:
        _trace_every_side(monkeypatch)
    settings = default_settings("acok", param_min=0.0, param_max=700.0)
    tb = next(b for b in model.trivial_branches(params) if b.bifurcating)
    bifs = detect_bifurcations_on_trivial(
        model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), g))
    assert len(bifs) == 3
    seeds = _log_seeds(monkeypatch)
    out = []
    for bif in bifs:
        seeds.clear()
        out.append((bif, branch_switch(model, params, settings, bif), list(seeds)))
    return out


@pytest.mark.parametrize("n_cells", [40, 100])
def test_acok_seeds_converge_at_the_first_in_window_offset(n_cells, monkeypatch):
    # Seeded at 0.05*(sup|base| + 1) = 0.075, far above bp0's branch
    # amplitude (2e-4), every side failed its first offsets with
    # no_convergence at the 14-iteration cap.
    for bif, sides, seeds in _acok_switch_seeds(n_cells, monkeypatch):
        assert [b.id for b in sides] == [f"{bif.bif_id}+", f"{bif.bif_id}-"]
        assert all(seed["outcome"] != "no_convergence" for seed in seeds)
        # one seed per side: the loop over the offsets skips only those
        # outside the window, so it is the first in-window offset's
        assert [int(np.sign(seed["direction"] @ bif.null_mode)) for seed in seeds] == [1, -1]
        for seed, side in zip(seeds, sides):
            assert seed["outcome"] == "converged"
            assert seed["param"] == side.points[1].param


def test_acok_seeds_converge_within_5_newton_iterations_at_n100(monkeypatch):
    # The acok-slice grid.  At N=40 bp0's seeds take 7: the ladder's 2x
    # rungs put the pick at 0.60 of the branch amplitude there, next to the
    # turning point of Newton on a*(lam + c*a*a), at 1/sqrt(3) of it.
    iters = {bif.bif_id: [seed["iters"] for seed in seeds]
             for bif, _, seeds in _acok_switch_seeds(100, monkeypatch)}
    assert all(len(v) == 2 and max(v) <= 5 for v in iters.values()), iters


def test_acok_plus_seeds_converge_at_the_first_in_window_offset_within_5_iterations(monkeypatch):
    # The same seeds as traced with every side, on acok-slice's grid; the -
    # side is the image, and seeds nothing.
    for bif, sides, seeds in _acok_switch_seeds(100, monkeypatch, every_side=False):
        assert [b.id for b in sides] == [f"{bif.bif_id}+", f"{bif.bif_id}-"]
        (seed,) = seeds
        assert int(np.sign(seed["direction"] @ bif.null_mode)) == 1
        assert seed["outcome"] == "converged" and seed["iters"] <= 5
        assert seed["param"] == sides[0].points[1].param


def test_ac_seed_amplitude_is_within_a_factor_2_of_the_converged_seed(ac_detection, monkeypatch):
    g, model, params, settings, bifs = ac_detection
    seeds = _log_seeds(monkeypatch)
    for bif in bifs:
        seeds.clear()
        assert len(branch_switch(model, params, settings, bif)) == 2
        seed = seeds[-1]
        assert seed["outcome"] == "converged"
        m = bif.null_mode / _sup(bif.null_mode)
        along = float(seed["state"] @ m) / float(m @ m)
        assert seed["picked"] / 2.0 <= along <= 2.0 * seed["picked"]


@pytest.mark.parametrize("seed_amplitude", [None, 0.2, 1e-3])
def test_seed_amplitude_setting_is_the_largest_amplitude_evaluated(ac_detection, monkeypatch, seed_amplitude):
    g, model, params, settings, bifs = ac_detection
    seeds = _log_seeds(monkeypatch)
    branch_switch(model, params, replace(settings, seed_amplitude=seed_amplitude), bifs[0])
    top = 0.05 if seed_amplitude is None else seed_amplitude  # 0.05*(sup|base| + 1), base 0
    assert seeds
    for seed in seeds:
        assert seed["tried"] == [top * 2.0**-k for k in range(continuation.SEED_LADDER_DEPTH)]
        assert seed["picked"] in seed["tried"]


def test_branch_switch_logs_each_seed_at_info(ac_detection, caplog):
    g, model, params, settings, bifs = ac_detection
    with caplog.at_level("INFO", logger="phase_bifurcate"):
        branch_switch(model, params, settings, bifs[0])
    seeds = [r.getMessage() for r in caplog.records if " seed at param=" in r.getMessage()]
    assert len(seeds) == 1 and all(r.levelname == "INFO" for r in caplog.records)
    assert seeds[0].startswith(f"{bifs[0].bif_id}+ seed at param=")
    assert ", amplitude " in seeds[0] and seeds[0].endswith(" Newton iterations")
    assert "converged in " in seeds[0]


# ---------------------------------------------------------------------------
# dedupe
# ---------------------------------------------------------------------------


def _mk_branch(bid, origin_kind, states, params_list):
    pts = [
        BranchPoint(param=p, state=np.array(s, dtype=float), residual_norm=0.0, det_sign=1, newton_iters_used=1)
        for p, s in zip(params_list, states)
    ]
    origin = BranchOrigin(origin_kind, bid, 1 if origin_kind == "switched" else 0)
    return Branch(id=bid, origin=origin, points=pts, stop_reason="param_bound")


def test_dedupe_drops_coincident_switched_branches():
    params_list = [0.1, 0.2, 0.3]
    states = [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]
    a = _mk_branch("bp0+", "switched", states, params_list)
    b = _mk_branch("bp1+", "switched", [[v[0], v[1] + 1e-7] for v in states], params_list)
    kept = _dedupe_branches([a, b], toy_settings())
    assert [br.id for br in kept] == ["bp0+"]


def test_dedupe_keeps_distinct_branches_and_all_trivial():
    params_list = [0.1, 0.2, 0.3]
    states = [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]
    a = _mk_branch("trivial:a", "trivial", states, params_list)
    b = _mk_branch("trivial:b", "trivial", states, params_list)  # identical but trivial
    c = _mk_branch("bp0+", "switched", states, params_list)
    d = _mk_branch("bp1+", "switched", [[v[0], -v[1]] for v in states], params_list)
    kept = _dedupe_branches([a, b, c, d], toy_settings())
    assert [br.id for br in kept] == ["trivial:a", "trivial:b", "bp0+", "bp1+"]


def _polyline_gap_per_query(query_param, query_state, other, frame):
    """``_polyline_gap`` with every array built from the branch at each query."""
    P = np.array([p.param for p in other.points])
    X = np.stack([p.state for p in other.points])
    if len(P) == 1:
        return _sup(query_state - X[0]), abs(query_param - P[0])
    dP, dX = P[1:] - P[:-1], X[1:] - X[:-1]
    num = (query_param - P[:-1]) * dP / frame.pscale**2 + (dX @ query_state - np.einsum("ij,ij->i", dX, X[:-1])) / frame.n
    den = dP * dP / frame.pscale**2 + np.einsum("ij,ij->i", dX, dX) / frame.n
    t = np.where(den > 0.0, np.clip(num / np.where(den > 0.0, den, 1.0), 0.0, 1.0), 0.0)
    gaps = np.max(np.abs(X[:-1] + t[:, None] * dX - query_state[None, :]), axis=1)
    k = int(np.argmin(gaps))
    return float(gaps[k]), float(abs(query_param - (P[:-1] + t * dP)[k]))


def test_polyline_gaps_from_a_prebuilt_polyline_are_the_per_query_ones_bitwise(small_diagram):
    _, _, _, settings, diagram = small_diagram
    offshoots = [b for b in diagram.branches if b.origin.kind == "switched"]
    one_point = replace(offshoots[0], points=offshoots[0].points[:1])
    frame = continuation._ArclengthFrame(offshoots[0].points[0].state.shape[0], settings)
    for other in offshoots + [one_point]:
        line = continuation._Polyline(other)
        for br in offshoots:
            for pt in br.points[:: max(1, len(br.points) // 7)]:
                got = continuation._polyline_gap(pt.param, pt.state, line, frame)
                want = _polyline_gap_per_query(pt.param, pt.state, other, frame)
                assert [v.hex() for v in got] == [v.hex() for v in want]


# ---------------------------------------------------------------------------
# whole-diagram assembly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_diagram():
    g = GridSpec(80)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.5)
    settings = default_settings("ac", param_min=0.3, param_max=0.7)
    return g, model, params, settings, compute_diagram(model, params, settings)


def test_diagram_inventory(small_diagram):
    _, _, _, _, diagram = small_diagram
    assert diagram.model_kind == "ac"
    trivial = [b for b in diagram.branches if b.origin.kind == "trivial"]
    switched = [b for b in diagram.branches if b.origin.kind == "switched"]
    assert sorted(b.id for b in trivial) == ["trivial:phi=+1", "trivial:phi=-1", "trivial:phi=0"]
    assert len(switched) == 4  # two crossings, +/- each
    assert len(diagram.bifurcations) == 2
    assert sorted(b.bif_id for b in diagram.bifurcations) == ["bp0", "bp1"]
    for b in switched:
        assert b.id in {"bp0+", "bp0-", "bp1+", "bp1-"}


def test_diagram_rerun_is_bitwise_identical(small_diagram):
    _, model, params, settings, first = small_diagram
    second = compute_diagram(model, params, settings)
    assert len(first.branches) == len(second.branches)
    for b1, b2 in zip(first.branches, second.branches):
        assert b1.id == b2.id and b1.stop_reason == b2.stop_reason
        assert len(b1.points) == len(b2.points)
        for p1, p2 in zip(b1.points, b2.points):
            assert p1.param == p2.param
            assert np.array_equal(p1.state, p2.state)
    for f1, f2 in zip(first.bifurcations, second.bifurcations):
        assert f1.param == f2.param and f1.bif_id == f2.bif_id


@pytest.mark.parametrize("at", [None, "slice"])
@pytest.mark.parametrize(
    "kind, params, window, at_value",
    [
        ("ac", ModelParams(epsilon=0.5), dict(param_min=0.3, param_max=0.7), 0.55),
        ("ch", ModelParams(epsilon=0.3, mu0=0.05), dict(param_min=0.2, param_max=0.7), 0.3),
        ("acok", ModelParams(epsilon=0.3), dict(param_min=0.0, param_max=700.0), 300.0),
    ],
    ids=["ac", "ch-mu0-0.05", "acok"],
)
def test_diagram_scans_only_the_bifurcating_branch(kind, params, window, at_value, at, monkeypatch):
    model = model_by_kind(kind, GridSpec(60))
    settings = default_settings(kind, **window)
    detect = continuation.detect_bifurcations_on_trivial
    scanned = []

    def spy(model_, params_, settings_, trivial_state_fn):
        scanned.append(trivial_state_fn(settings.param_max))
        return detect(model_, params_, settings_, trivial_state_fn)

    monkeypatch.setattr(continuation, "detect_bifurcations_on_trivial", spy)
    diagram = compute_diagram(model, params, settings, at=at_value if at else None)
    top = model.with_param(params, settings.param_max)
    bifurcating = [tb.state_of(top, model.grid) for tb in model.trivial_branches(params) if tb.bifurcating]
    assert len(scanned) == len(bifurcating) == 1
    assert np.array_equal(scanned[0], bifurcating[0])
    # Scanning every constant branch finds the same events: the stable ones
    # have none.
    every = [
        bif for tb in model.trivial_branches(params)
        for bif in detect(model, params, settings, lambda pv, tb=tb: tb.state_of(model.with_param(params, pv),
                                                                                 model.grid))
    ]
    assert len(every) >= 2
    assert [(b.bif_id, b.param.hex(), b.mode_family, b.mode_index) for b in diagram.bifurcations] == [
        (f"bp{i}", b.param.hex(), b.mode_family, b.mode_index) for i, b in enumerate(every)]


@pytest.mark.parametrize(
    "kind, params, window, at_value",
    [
        ("ac", ModelParams(epsilon=0.5), dict(param_min=0.3, param_max=0.7), 0.55),
        ("ch", ModelParams(epsilon=0.3, mu0=0.05), dict(param_min=0.2, param_max=0.7), 0.3),
        ("acok", ModelParams(epsilon=0.3), dict(param_min=0.0, param_max=700.0), 300.0),
    ],
    ids=["ac", "ch-mu0-0.05", "acok"],
)
def test_engine_never_builds_the_dense_jacobian(kind, params, window, at_value, monkeypatch):
    """Detection, null modes, switching, tracing and slicing all factor
    ``linearize``; the dense ``jacobian`` is only the tests' and verify's
    oracle."""
    model = model_by_kind(kind, GridSpec(40))
    settings = default_settings(kind, **window)

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built the dense Jacobian")

    monkeypatch.setattr(type(model), "jacobian", refuse)
    full = compute_diagram(model, params, settings)
    sliced = compute_diagram(model, params, settings, at=at_value)
    assert full.bifurcations and sliced.bifurcations
    assert solutions_at(sliced, at_value, model, settings)
    tb = next(tb for tb in model.trivial_branches(params) if tb.bifurcating)
    bifs = detect_bifurcations_on_trivial(
        model, params, settings, lambda pv: tb.state_of(model.with_param(params, pv), model.grid))
    assert [b.param for b in bifs] == [b.param for b in full.bifurcations]


def test_diagram_requires_positive_window_for_epsilon_models():
    g = GridSpec(40)
    model = model_by_kind("ac", g)
    with pytest.raises(ValueError):
        compute_diagram(
            model,
            ModelParams(epsilon=0.5),
            toy_settings(param_min=-0.1, param_max=0.7, initial_step=0.002, min_step=1e-7, max_step=0.004),
        )


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------


def test_solutions_at_counts_and_pairing(small_diagram):
    _, model, params, settings, diagram = small_diagram
    sols = solutions_at(diagram, 0.55, model, settings)
    # only the first crossing (eps ~ 0.6366) is above 0.55: one +/- pair
    assert len(sols) == 2
    states = sorted(sols, key=lambda s: s.state[0])
    assert np.max(np.abs(states[0].state + states[1].state)) <= 1e-8  # negation pair
    for s in sols:
        assert s.residual_norm <= 1e-9
        assert s.branch_id.startswith("bp")
        assert abs(s.param - 0.55) <= 1e-12


def test_solutions_at_empty_above_first_crossing(small_diagram):
    _, model, params, settings, diagram = small_diagram
    assert solutions_at(diagram, 0.68, model, settings) == []


def test_solutions_at_rejects_out_of_window(small_diagram):
    _, model, params, settings, diagram = small_diagram
    with pytest.raises(ValueError):
        solutions_at(diagram, 0.75, model, settings)


def test_newton_on_parity_blocks_follows_the_full_solve_on_the_ac_slice(monkeypatch):
    # The ac-slice benchmark's run (solutions --model ac --epsilon 0.1
    # --n-cells 100 --step 0.005 --eps-range 0.095:0.4), with every solve
    # through an even or odd Jacobian on its parity blocks, against the same
    # run with each Newton correction and predictor solve on the whole band,
    # top-down: the same branches, points, parameters and iteration counts,
    # and every state within 1e-10.  Det signs and null modes come from the
    # blocks in both runs.
    model = model_by_kind("ac", GridSpec(100))
    params = ModelParams(epsilon=0.1)
    base = default_settings("ac", param_min=0.095, param_max=0.4)
    settings = replace(base, initial_step=0.005, max_step=max(0.005, base.max_step), min_step=min(0.005, base.min_step))

    def run():
        diagram = compute_diagram(model, params, settings, at=0.1)
        return diagram, solutions_at(diagram, 0.1, model, settings)

    single, parity_solves = [], linalg._parity_solves

    def counting_parity_solves(fact, b):
        parts = parity_solves(fact, b)
        single.append(any(p is None for p in parts))
        return parts

    monkeypatch.setattr(linalg, "_parity_solves", counting_parity_solves)
    diagram, sols = run()
    assert sum(single) >= 300  # every Newton correction on an offshoot takes one block

    def tagged_factor(system, *args, **kwargs):
        fact = lu_factor(system, *args, **kwargs)
        fact.system = system
        return fact

    def whole_band_solve(fact, rhs):
        if not isinstance(fact, linalg.ParityLuFactorization):
            return lu_solve(fact, rhs)
        band = linalg._diagonals(fact.system.band)
        whole = linalg._band_factor(tuple(d.tolist() for d in band), fact.pivot_floor)
        if whole.singular:
            raise SingularMatrixError("singular matrix")
        return np.array(linalg._band_solve(whole, np.asarray(rhs, dtype=float).tolist()))

    monkeypatch.setattr(continuation, "lu_factor", tagged_factor)
    monkeypatch.setattr(continuation, "lu_solve", whole_band_solve)
    full_diagram, full_sols = run()
    assert len(sols) == len(full_sols) == 10
    assert [b.id for b in diagram.branches] == [b.id for b in full_diagram.branches]
    assert [(b.param, b.bif_id) for b in diagram.bifurcations] == [(b.param, b.bif_id) for b in full_diagram.bifurcations]
    for branch, full in zip(diagram.branches, full_diagram.branches):
        assert branch.stop_reason == full.stop_reason
        assert [(p.param, p.newton_iters_used) for p in branch.points] == [
            (p.param, p.newton_iters_used) for p in full.points]
        for p, q in zip(branch.points, full.points):
            assert np.max(np.abs(p.state - q.state)) <= 1e-10, branch.id
    for s, t in zip(sols, full_sols):
        assert (s.branch_id, s.param) == (t.branch_id, t.param)
        assert np.max(np.abs(s.state - t.state)) <= 1e-10


@pytest.mark.parametrize("kind", ["ac", "ch"])
def test_every_state_of_the_n200_slice_is_exactly_even_or_odd(kind):
    # Each primary null mode is exactly even or odd (linalg.null_vector), and
    # the reflection-equivariant solves keep every Newton iterate so, bit
    # for bit.  bp11's near-null interface-translation mode once took its
    # states 1.4e-4 off parity.
    grid = GridSpec(200)
    model = model_by_kind(kind, grid)
    params = ModelParams(epsilon=0.1, mu0=0.0)
    settings = default_settings(kind)
    diagram = compute_diagram(model, params, settings, at=0.1)
    sols = solutions_at(diagram, 0.1, model, settings)
    assert len(sols) == 12
    states = [(s.branch_id, s.state) for s in sols]
    states += [(b.id, p.state) for b in diagram.branches for p in b.points]
    for branch_id, state in states:
        assert np.array_equal(state[::-1], state) or np.array_equal(state[::-1], -state), branch_id


# ---------------------------------------------------------------------------
# slice diagrams: compute_diagram(..., at=p) traces only what a slice at p reads
# ---------------------------------------------------------------------------


def _slice_case(kind, n_cells, params, at, **window):
    model = model_by_kind(kind, GridSpec(n_cells))
    settings = default_settings(kind, **window)
    full = compute_diagram(model, params, settings)
    sliced = compute_diagram(model, params, settings, at=at)
    return model, params, settings, at, full, sliced


@pytest.fixture(
    scope="module",
    params=["ac", "ac-arclength", "ch-mu0-0.05", "acok"],
)
def slice_case(request):
    """(model, params, settings, at, full diagram, diagram computed for the slice at ``at``)."""
    ac_window = dict(param_min=0.3, param_max=0.7)
    return {
        "ac": lambda: _slice_case("ac", 80, ModelParams(epsilon=0.5), 0.55, **ac_window),
        "ac-arclength": lambda: _slice_case(
            "ac", 80, ModelParams(epsilon=0.5), 0.55, use_pseudo_arclength=True, **ac_window),
        "ch-mu0-0.05": lambda: _slice_case(
            "ch", 60, ModelParams(epsilon=0.3, mu0=0.05), 0.3, param_min=0.2, param_max=0.7),
        "acok": lambda: _slice_case(
            "acok", 60, ModelParams(epsilon=0.3), 300.0, param_min=0.0, param_max=700.0),
    }[request.param]()


def test_slice_diagram_gives_the_full_diagrams_solutions_bitwise(slice_case):
    model, params, settings, at, full, sliced = slice_case
    expected = solutions_at(full, at, model, settings)
    got = solutions_at(sliced, at, model, settings)
    assert len(expected) >= 2
    assert [(s.branch_id, s.origin, s.param) for s in got] == [(s.branch_id, s.origin, s.param) for s in expected]
    for g_sol, e_sol in zip(got, expected):
        assert np.array_equal(g_sol.state, e_sol.state)
        assert g_sol.residual_norm == e_sol.residual_norm
    assert len(sliced.bifurcations) == len(full.bifurcations)
    for f_s, f_e in zip(sliced.bifurcations, full.bifurcations):
        assert (f_s.bif_id, f_s.param, f_s.mode_family, f_s.mode_index) == (
            f_e.bif_id, f_e.param, f_e.mode_family, f_e.mode_index)
        assert np.array_equal(f_s.base_state, f_e.base_state)
        assert np.array_equal(f_s.null_mode, f_e.null_mode)


def test_slice_diagram_holds_no_trivial_branch(slice_case):
    _, _, _, at, full, sliced = slice_case
    assert full.at is None and sliced.at == at
    assert any(b.origin.kind == "trivial" for b in full.branches)
    assert sliced.branches
    assert all(b.origin.kind == "switched" for b in sliced.branches)


def test_slice_diagram_offshoots_stop_at_the_slice(slice_case):
    _, _, settings, at, full, sliced = slice_case
    full_by_id = {b.id: b for b in full.branches}
    assert [b.id for b in sliced.branches] == [b.id for b in full.branches if b.origin.kind == "switched"]
    for br in sliced.branches:
        whole = full_by_id[br.id]
        if settings.use_pseudo_arclength:
            # A fold can cross the slice again: traced in full.
            kept = len(whole.points)
            assert br.stop_reason == whole.stop_reason
        else:
            anchor, seed = br.points[:2]
            direction = 1 if seed.param > anchor.param else -1
            past = [i for i, p in enumerate(whole.points) if i >= 1 and direction * (p.param - at) >= 0.0]
            # Only anchor and seed when the seed is already at or past the
            # slice (or the offshoot leads away from it); else up to the first
            # point at or past it.
            kept = past[0] + 1 if past else len(whole.points)
            assert br.stop_reason == ("slice" if past else whole.stop_reason)
        assert len(br.points) == kept
        for p_s, p_f in zip(br.points, whole.points):
            assert p_s.param == p_f.param and np.array_equal(p_s.state, p_f.state)


def test_slice_diagram_reads_no_det_sign(slice_case):
    # solutions_at reads no det sign, so no point of a slice diagram carries
    # one, natural or pseudo-arclength, anchors and seeds included; every
    # point of the full diagram does.
    *_, full, sliced = slice_case
    assert all(p.det_sign is None for b in sliced.branches for p in b.points)
    assert all(p.det_sign in (-1, 0, 1) for b in full.branches for p in b.points)


# The ac-slice and acok-slice benchmark workloads at seed 0, with the band
# kernel each one's blocks go through and that kernel's call count for the
# whole run.  Reading every accepted point's det sign (anchors, trivial
# starts, offshoot points and slice corrections) took 581 and 205 calls.
_SLICE_WORKLOADS = {
    "ac-slice": ("solutions --model ac --epsilon 0.1 --n-cells 100 --step 0.005 --eps-range 0.095:0.4",
                 "_band_factor", 458),
    "acok-slice": ("solutions --model acok --gamma 100 --epsilon 0.3 --n-cells 100 --gamma-range 0.0:700.0",
                   "_bordered_factor", 156),
}


@pytest.mark.parametrize("workload", sorted(_SLICE_WORKLOADS))
def test_slice_run_reads_det_signs_only_while_detecting(workload, monkeypatch, capsys):
    # solutions prints no det sign: only the detection scan's probes read
    # one, and outside it a parity block is eliminated only where a solve
    # uses it.  solutions_at solves with every factorization it makes, so it
    # factors only inside Newton iterations, never an accepted state.
    argv, kernel, most = _SLICE_WORKLOADS[workload]
    detecting, outside, eliminated = [], [], []
    factored, solved, slicing = [], [], []

    def spy(fn, before=None, after=None):
        def call(*args, **kwargs):
            if before:
                before(args)
            out = fn(*args, **kwargs)
            if after:
                after(out)
            return out

        return call

    monkeypatch.setattr(continuation, "detect_bifurcations_on_trivial",
                        _flagged(detecting, continuation.detect_bifurcations_on_trivial))
    monkeypatch.setattr(cli, "solutions_at", _flagged(slicing, cli.solutions_at))
    monkeypatch.setattr(continuation, "det_sign",
                        spy(det_sign, before=lambda a: detecting or outside.append(type(a[0]).__name__)))
    monkeypatch.setattr(linalg, kernel, spy(getattr(linalg, kernel), before=eliminated.append))
    monkeypatch.setattr(continuation, "lu_factor", spy(lu_factor, after=lambda f: slicing and factored.append(f)))
    monkeypatch.setattr(continuation, "lu_solve", spy(lu_solve, before=lambda a: slicing and solved.append(a[0])))
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert outside == []
    assert 0 < len(eliminated) <= most
    assert factored and [id(f) for f in factored] == [id(f) for f in solved]


def test_slice_diagram_cuts_offshoots_that_lead_away():
    # Natural AC offshoots run from their crossing towards smaller eps, so a
    # slice above both crossings keeps only anchor and seed of each.
    model, params, settings, at, full, sliced = _slice_case(
        "ac", 60, ModelParams(epsilon=0.5), 0.68, param_min=0.3, param_max=0.7)
    assert [len(b.points) for b in sliced.branches] == [2, 2, 2, 2]
    assert {b.stop_reason for b in sliced.branches} == {"slice"}
    assert all(len(b.points) > 2 for b in full.branches if b.origin.kind == "switched")
    assert solutions_at(sliced, at, model, settings) == solutions_at(full, at, model, settings) == []


def test_solutions_at_rejects_another_param_on_a_slice_diagram(slice_case):
    model, _, settings, at, full, sliced = slice_case
    other = 0.5 * (at + settings.param_max)
    solutions_at(full, other, model, settings)
    with pytest.raises(ValueError, match="slice"):
        solutions_at(sliced, other, model, settings)


def test_slice_outside_the_window_is_rejected(small_diagram):
    _, model, params, settings, _ = small_diagram
    with pytest.raises(ValueError):
        compute_diagram(model, params, settings, at=0.75)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
