"""Tests for the continuation engine: Newton corrector, predictor, natural
and pseudo-arclength tracing, det-sign event detection, branch switching,
dedupe, parameter slicing, and diagrams computed for one slice.

Heavy machinery is exercised on small grids (N=80..100); fold handling uses
a two-unknown toy system with known geometry (x1^2 + mu = 1, x2 = x1: a fold
at mu=1 that natural stepping cannot round but arclength must)."""

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
    ac_bifurcation,
    branch_switch,
    compute_diagram,
    default_settings,
    det_sign,
    detect_bifurcations_on_trivial,
    eigenmode,
    euler_predict,
    lu_factor,
    model_by_kind,
    newton_correct,
    solutions_at,
    trace_branch,
)
from phase_bifurcate import continuation
from phase_bifurcate.continuation import Branch, BranchPoint, _dedupe_branches, _sup


class DenseLinearization:
    """Toy models hand their small dense Jacobians to the engine as a band."""

    def linearize(self, state, mu):
        return BandBorder.from_dense(self.jacobian(state, mu))


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
    errs = []
    for step in (0.1, 0.05):
        pred = euler_predict(model, 0.0, start, step)
        exact = math.sqrt(1.0 - step)
        errs.append(abs(pred[0] - exact))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


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
    params = branch.params
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
    params = branch.params
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
        x_nat = np.interp(mu_q, b_nat.params[::-1], [p.state[0] for p in b_nat.points][::-1])
        x_arc = np.interp(mu_q, b_arc.params[::-1], [p.state[0] for p in b_arc.points][::-1])
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


@pytest.mark.parametrize("shift", [0.0, 0.37], ids=["from-zero", "shifted"])
@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
@pytest.mark.parametrize("n_cells", [60, 100, 200])
def test_batched_scan_signs_give_the_scalar_detection_bitwise(n_cells, closure, shift, monkeypatch):
    # The scan's first-level signs come from linalg.det_signs; signing them
    # one at a time instead must not change a bit of any event.  A window
    # from gamma = 0 starts on a sample det_signs hands to lu_factor; the
    # shifted one starts a fraction of a step in, as the benchmark's seeds do.
    g = GridSpec(n_cells)
    model = model_by_kind("acok", g, closure=closure)
    params = ModelParams(epsilon=0.3, gamma=100.0)
    settings = default_settings("acok", param_min=shift * 10.0, param_max=700.0)
    state = np.full(g.n_nodes, 0.5)
    batched = detect_bifurcations_on_trivial(model, params, settings, lambda p: state)
    monkeypatch.setattr(
        continuation, "det_signs",
        lambda systems, pivot_rtol: [det_sign(lu_factor(s, pivot_rtol=pivot_rtol)) for s in systems])
    scalar = detect_bifurcations_on_trivial(model, params, settings, lambda p: state)
    assert len(batched) == len(scalar) >= 2
    for a, b in zip(batched, scalar):
        assert (a.bif_id, a.param.hex(), a.mode_family, a.mode_index) == (b.bif_id, b.param.hex(), b.mode_family,
                                                                         b.mode_index)
        assert a.base_state.tobytes() == b.base_state.tobytes()
        assert a.null_mode.tobytes() == b.null_mode.tobytes()


# ---------------------------------------------------------------------------
# branch switching
# ---------------------------------------------------------------------------


def test_branch_switch_produces_bitwise_mirror_offshoots(ac_detection):
    g, model, params, settings, bifs = ac_detection
    sine0 = [b for b in bifs if b.mode_family == "sine"][0]
    sides = branch_switch(model, params, settings, sine0)
    assert len(sides) == 2
    plus, minus = sides
    assert plus.origin.sign == 1 and minus.origin.sign == -1
    assert plus.id.endswith("+") and minus.id.endswith("-")
    assert len(plus.points) == len(minus.points)
    for p, m in zip(plus.points, minus.points):
        assert p.param == m.param
        assert np.array_equal(p.state, -m.state)


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


def test_branch_switch_warns_once_when_neither_side_yields_a_branch(caplog):
    # An unreachable Newton tolerance fails every seed or pulls it back onto
    # the trivial state, on both sides of every crossing.
    g = GridSpec(40)
    model = model_by_kind("ac", g)
    params = ModelParams(epsilon=0.2)
    settings = default_settings("ac", param_min=0.15, param_max=0.5, newton_tol=1e-30)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: np.zeros(g.n_nodes))
    bif = bifs[0]
    with caplog.at_level("INFO", logger="phase_bifurcate"):
        assert branch_switch(model, params, settings, bif) == []
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert f"branch switch at {bif.bif_id} (param={bif.param!r}) produced no branch" in message
    assert "+ side: last Newton failure no_convergence" in message
    assert "- side: last Newton failure no_convergence" in message


def test_branch_switch_with_surviving_sides_does_not_warn(ac_detection, caplog):
    g, model, params, settings, bifs = ac_detection
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        for bif in bifs:
            assert len(branch_switch(model, params, settings, bif)) == 2
    assert caplog.records == []


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
