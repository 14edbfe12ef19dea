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
    ac_bifurcations_in_range,
    acok_bifurcations_in_range,
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


@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
@pytest.mark.parametrize(
    "kind, params",
    [
        ("ac", ModelParams(epsilon=0.5)),
        ("ch", ModelParams(epsilon=0.5)),
        ("ch", ModelParams(epsilon=0.5, mu0=0.05)),
        ("acok", ModelParams(epsilon=0.1)),
        ("acok", ModelParams(epsilon=0.3)),
    ],
    ids=["ac", "ch-mu0-0", "ch-mu0-0.05", "acok-eps-0.1", "acok-eps-0.3"],
)
def test_detection_empty_on_every_stable_branch(kind, params, closure):
    # The engine scans only the branch flagged bifurcating; the wells must
    # have no det-sign event over the house windows.  Under the one-sided
    # closure the ACOK wells have no proof (models.TrivialBranch), so this
    # scan is their only guard.
    g = GridSpec(200)
    model = model_by_kind(kind, g, closure=closure)
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
    (60, "symmetric", 0.0): (
        ("0x1.5cfe293e00000p+3", "sine", 4),
        ("0x1.246f6ea520000p+7", "sine", 0),
        ("0x1.197a04b9a8000p+9", "cosine", 1),
    ),
    (60, "symmetric", 0.37): (
        ("0x1.5cfe293866666p+3", "sine", 4),
        ("0x1.246f6ea4c6666p+7", "sine", 0),
        ("0x1.197a04b99199ap+9", "cosine", 1),
    ),
    (60, "onesided-right", 0.0): (
        ("0x1.244f5b5260000p+7", "sine", 0),
        ("0x1.9ff098d0a0000p+7", "sine", 4),
        ("0x1.19d144fd68000p+9", "cosine", 1),
    ),
    (60, "onesided-right", 0.37): (
        ("0x1.244f5b5206666p+7", "sine", 0),
        ("0x1.9ff098d046666p+7", "sine", 4),
        ("0x1.19d144fd5199ap+9", "cosine", 1),
    ),
    (100, "symmetric", 0.0): (
        ("0x1.17d3cc7e00000p+3", "sine", 4),
        ("0x1.246f6f29a0000p+7", "sine", 0),
        ("0x1.197a0c5b68000p+9", "cosine", 1),
    ),
    (100, "symmetric", 0.37): (
        ("0x1.17d3cc8c66666p+3", "sine", 4),
        ("0x1.246f6f2946666p+7", "sine", 0),
        ("0x1.197a0c5b5199ap+9", "cosine", 1),
    ),
    (100, "onesided-right", 0.0): (
        ("0x1.fe3e98b140000p+6", "sine", 4),
        ("0x1.24b267a660000p+7", "sine", 0),
        ("0x1.19a728e698000p+9", "cosine", 1),
    ),
    (100, "onesided-right", 0.37): (
        ("0x1.fe3e98b30ccccp+6", "sine", 4),
        ("0x1.24b267a606666p+7", "sine", 0),
        ("0x1.19a728e68199ap+9", "cosine", 1),
    ),
    (200, "symmetric", 0.0): (
        ("0x1.0e3ac79e00000p+3", "sine", 4),
        ("0x1.246f6f3c60000p+7", "sine", 0),
        ("0x1.197a0d6be8000p+9", "cosine", 1),
    ),
    (200, "symmetric", 0.37): (
        ("0x1.0e3ac79866666p+3", "sine", 4),
        ("0x1.246f6f3c06666p+7", "sine", 0),
        ("0x1.197a0d6bd199ap+9", "cosine", 1),
    ),
    (200, "onesided-right", 0.0): (
        ("0x1.1088d83bc0000p+6", "sine", 4),
        ("0x1.2477985ca0000p+7", "sine", 0),
        ("0x1.198e847648000p+9", "cosine", 1),
    ),
    (200, "onesided-right", 0.37): (
        ("0x1.1088d83b0cccdp+6", "sine", 4),
        ("0x1.2477985c46666p+7", "sine", 0),
        ("0x1.198e84763199ap+9", "cosine", 1),
    ),
}


@pytest.mark.parametrize("shift", [0.0, 0.37], ids=["from-zero", "shifted"])
@pytest.mark.parametrize("closure", ["symmetric", "onesided-right"])
@pytest.mark.parametrize("n_cells", [60, 100, 200])
def test_batched_scan_signs_give_the_scalar_detection_bitwise(n_cells, closure, shift):
    # Signing the scan's samples one at a time must find, bit for bit, the
    # events the batched pass found.  Only the signs could differ, and they
    # decide every bisection, so the params pin the whole detection.  A window
    # from gamma = 0 starts on a sample; the shifted one starts a fraction of
    # a step in, as the benchmark's seeds do.
    g = GridSpec(n_cells)
    model = model_by_kind("acok", g, closure=closure)
    params = ModelParams(epsilon=0.3, gamma=100.0)
    settings = default_settings("acok", param_min=shift * 10.0, param_max=700.0)
    state = np.full(g.n_nodes, 0.5)
    bifs = detect_bifurcations_on_trivial(model, params, settings, lambda p: state)
    got = [(b.param.hex(), b.mode_family, b.mode_index) for b in bifs]
    assert got == list(_BATCHED_SCAN_EVENTS[n_cells, closure, shift])
    assert [b.bif_id for b in bifs] == [f"bp{i}" for i in range(len(bifs))]
    for b in bifs:
        assert b.base_state.tobytes() == state.tobytes()


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
    """Log every ``lu_factor`` call the engine makes; returns the log."""
    factored = []

    def counting_lu_factor(*args, **kwargs):
        factored.append(None)
        return lu_factor(*args, **kwargs)

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
