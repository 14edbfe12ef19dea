"""Acceptance gate: one test per numbered release criterion, each printing a
single PASS/FAIL line and then asserting the criterion at its stated
tolerance.

The gate is the release spec and its bounds are fixed.  The criteria that
compare detected crossings with the closed forms (1, 3, 5c and 8) measure
the discretization bias of the models' compact fourth-order scheme
``B^-1 A``: the detector finds the discrete crossings to within its
bisection width, so every remaining gap is the scheme's ``O((kh)^4)``
eigenvalue error.  At the N=200 reference resolution that is a few 1e-6
relative for the finest Allen-Cahn / Cahn-Hilliard modes and about 0.24%
for the flattest nonlocal-strength crossing (sine n=4).

The gate lines are collected as they happen and replayed in an uncaptured
summary block at the end of the run, so they stay visible in piped pytest
output.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from phase_bifurcate import (
    GridSpec,
    ModelParams,
    ac_bifurcations_in_range,
    acok_bifurcations_in_range,
    ch_bifurcation,
    cli,
    compute_diagram,
    default_settings,
    detect_bifurcations_on_trivial,
    eigenmode,
    green_operator,
    implicit_step_threshold,
    laplacian_matrix,
    model_by_kind,
    poisson_neumann_solve,
    solutions_at,
)

N_REF = 200

_GATE_LINES = []


@pytest.fixture(scope="session", autouse=True)
def _gate_summary(request):
    """Replay every gate line, uncaptured, once the whole run is done."""
    yield
    if not _GATE_LINES:
        return
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled():
        print("\n---------------- acceptance summary ----------------")
        for line in _GATE_LINES:
            print(line)
        print("-----------------------------------------------------")


def gate(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    _GATE_LINES.append(line)
    print(line)  # captured copy, shows up in failure reports


def mode_key(b):
    return (b.mode_family, b.mode_index)


def detect_ac_like(kind, n_cells, mu0=0.0):
    g = GridSpec(n_cells)
    model = model_by_kind(kind, g)
    params = ModelParams(epsilon=0.5, mu0=mu0)
    settings = default_settings(kind)  # epsilon window [0.05, 0.7]
    bifs = detect_bifurcations_on_trivial(
        model,
        params,
        settings,
        lambda pv: np.full(g.n_nodes, _middle_value(kind, mu0, pv)),
    )
    return bifs


def _middle_value(kind, mu0, epsilon):
    if kind == "ac" or mu0 == 0.0:
        return 0.0
    from phase_bifurcate import ch_trivial_roots

    roots = ch_trivial_roots(ModelParams(epsilon=epsilon, mu0=mu0))
    return roots.values[roots.middle_index]


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ac_detect_200():
    t0 = time.perf_counter()
    bifs = detect_ac_like("ac", N_REF)
    return bifs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ac_detect_100():
    return detect_ac_like("ac", 100)


@pytest.fixture(scope="module")
def ch_detect_mu0_zero():
    return detect_ac_like("ch", N_REF, mu0=0.0)


@pytest.fixture(scope="module")
def ch_detect_mu0_005():
    return detect_ac_like("ch", N_REF, mu0=0.05)


@pytest.fixture(scope="module")
def acok_diagram():
    """Full nonlocal-model diagram at eps=0.3 over gamma in [0, 3000].

    The widened window (vs the CLI default 2000) matters: six of the twelve
    states at the gamma=1000 slice lie on branches whose trivial-branch
    crossings sit between 2000 and 3000, and every crossing of this model
    is below the analytic peak value 81/eps^3 = 3000.  All branches descend
    monotonically from their crossings, so natural-mode tracing suffices.
    """
    g = GridSpec(N_REF)
    model = model_by_kind("acok", g).engine()  # the CLI's: in u = 2 phi - 1
    params = ModelParams(epsilon=0.3, gamma=0.0)
    settings = default_settings("acok", param_max=3000.0)
    diagram = compute_diagram(model, params, settings)
    return g, model, params, settings, diagram


# ---------------------------------------------------------------------------
# criterion 1: interface-width crossings on the flat branch (N=200)
# ---------------------------------------------------------------------------


def test_criterion_1_ac_bifurcation_points(ac_detect_200):
    bifs, elapsed = ac_detect_200
    analytic = {mode_key(a): a.param_value for a in ac_bifurcations_in_range(0.05, 0.7)}
    detected = {mode_key(b): b.param for b in bifs}

    assert set(detected) == set(analytic), "detected mode set differs from the enumeration"
    rel = {k: abs(detected[k] - analytic[k]) / analytic[k] for k in analytic}
    worst_key = max(rel, key=rel.get)

    by_eps = sorted(bifs, key=lambda b: -b.param)
    fams = [b.mode_family for b in by_eps]
    alternates = all(a != b for a, b in zip(fams, fams[1:]))

    ok = max(rel.values()) <= 1e-3 and alternates and elapsed <= 60.0
    offenders = {f"{k[0]}{k[1]}": f"{v:.3e}" for k, v in rel.items() if v > 1e-3}
    gate(
        1,
        ok,
        f"12/12 crossings matched, worst rel gap {rel[worst_key]:.4e} at "
        f"{worst_key[0]} n={worst_key[1]}, alternation={alternates}, "
        f"detect time {elapsed:.1f}s"
        + (f"; over tolerance: {offenders}" if offenders else ""),
    )

    assert alternates
    assert elapsed <= 60.0
    # the finest modes carry the largest discretization bias, O((k h)^4):
    # a few 1e-6 at N=200 (the plain second difference would give ~1.5e-3)
    assert max(rel.values()) <= 1e-3, f"relative gaps over 1e-3: {offenders}"


# ---------------------------------------------------------------------------
# criterion 2: twelve states at the eps=0.1 slice, via the CLI
# ---------------------------------------------------------------------------


def test_criterion_2_ac_multiplicity(tmp_path, capsys):
    out = tmp_path / "sols.json"
    code = cli.main(
        ["solutions", "--model", "ac", "--epsilon", "0.1", "--format", "json", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    states = [np.array(s["state"]) for s in payload["solutions"]]
    residuals = [s["residual_norm"] for s in payload["solutions"]]

    distinct = all(
        np.max(np.abs(states[i] - states[j])) > 1e-4
        for i in range(len(states))
        for j in range(i + 1, len(states))
    )
    nontrivial = all(np.max(np.abs(s)) > 1e-3 for s in states)
    negation_gap = max(
        min(np.max(np.abs(other + s)) for other in states) for s in states
    ) if states else math.inf
    enumerated = [a for a in ac_bifurcations_in_range(0.05, 0.7) if a.param_value > 0.1]
    sine_count = sum(a.mode_family == "sine" for a in enumerated)
    cosine_count = sum(a.mode_family == "cosine" for a in enumerated)

    ok = (
        payload["count"] == 12
        and distinct
        and nontrivial
        and negation_gap <= 1e-8
        and max(residuals) <= 1e-9
        and (sine_count, cosine_count) == (3, 3)
    )
    gate(
        2,
        ok,
        f"count={payload['count']}, negation closure gap {negation_gap:.1e}, "
        f"max residual {max(residuals):.1e}, enumeration predicts "
        f"2*({sine_count} sine + {cosine_count} cosine) = {2 * len(enumerated)}",
    )
    assert payload["count"] == 12
    assert distinct and nontrivial
    assert negation_gap <= 1e-8
    assert max(residuals) <= 1e-9
    assert (sine_count, cosine_count) == (3, 3)


# ---------------------------------------------------------------------------
# criterion 3: nonlocal-strength crossings at eps=0.3
# ---------------------------------------------------------------------------


def test_criterion_3_acok_bifurcation_points(acok_diagram):
    g, model, params, settings, diagram = acok_diagram
    analytic = {
        mode_key(a): a.param_value for a in acok_bifurcations_in_range(0.3, 0.0, 2000.0)
    }
    detected = {mode_key(b): b.param for b in diagram.bifurcations}

    missing = [k for k in analytic if k not in detected]
    rel = {
        k: abs(detected[k] - analytic[k]) / analytic[k] for k in analytic if k in detected
    }
    offenders = {f"{k[0]}{k[1]}": f"{v:.2e}" for k, v in rel.items() if v > 5e-3}

    spot = detected.get(("sine", 0), math.inf)
    spot_ok = abs(spot - 146.2) <= 0.7

    # no crossings may appear on the phi=0 / phi=1 trivial branches (u = -1
    # and u = 1 in the model's state)
    side_counts = []
    scan = default_settings("acok")  # the default [0, 2000] window
    for tb in model.trivial_branches(params):
        if tb.label in ("phi=0", "phi=1"):
            side = detect_bifurcations_on_trivial(
                model, params, scan, lambda pv, tb=tb: tb.state_of(model.with_param(params, pv), g)
            )
            side_counts.append(len(side))

    ok = not missing and not offenders and spot_ok and side_counts == [0, 0]
    gate(
        3,
        ok,
        f"{len(rel)}/{len(analytic)} analytic crossings below 2000 matched, "
        f"spot sine0 {spot:.4f} (want 146.2 +- 0.7), side-branch detections "
        f"{side_counts}"
        + (f"; over 0.5%: {offenders}" if offenders else ""),
    )

    assert not missing, f"undetected analytic crossings: {missing}"
    assert spot_ok
    assert side_counts == [0, 0]
    # tightest case: the sine n=4 crossing (analytic 8.42) lives on the flat
    # tail of gamma(k), where -eps k^4 + (18/eps) k^2 nearly cancels and
    # magnifies any lag of the discrete spectrum behind k^2; the compact
    # scheme puts it within ~0.24% (the plain second difference: ~236%)
    assert not offenders, f"relative gaps over 0.5%: {offenders}"


# ---------------------------------------------------------------------------
# criterion 4: twelve states at the gamma=1000 slice
# ---------------------------------------------------------------------------


def test_criterion_4_acok_multiplicity(acok_diagram):
    g, model, params, settings, diagram = acok_diagram
    sols = solutions_at(diagram, 1000.0, model, settings)
    states = [model.phi_of(s.state) for s in sols]  # phi, as the CLI prints them

    distinct = all(
        np.max(np.abs(states[i] - states[j])) > 1e-4
        for i in range(len(states))
        for j in range(i + 1, len(states))
    )
    nontrivial = all(
        min(np.max(np.abs(s - c)) for c in (0.0, 0.5, 1.0)) > 1e-2 for s in states
    )
    # states pair up under the half-symmetry phi -> 1 - phi
    pair_gap = max(
        min(np.max(np.abs(other - (1.0 - s))) for other in states) for s in states
    ) if states else math.inf

    ok = len(sols) == 12 and distinct and nontrivial and pair_gap <= 1e-8
    gate(
        4,
        ok,
        f"count={len(sols)} (natural-mode tracing), distinct={distinct}, "
        f"half-symmetry pairing gap {pair_gap:.1e}",
    )
    assert len(sols) == 12
    assert distinct and nontrivial
    assert pair_gap <= 1e-8


# ---------------------------------------------------------------------------
# criterion 5: constant-potential reduction and shift
# ---------------------------------------------------------------------------


def test_criterion_5a_mu0_zero_bit_identical(ac_detect_200, ch_detect_mu0_zero):
    ac_bifs, _ = ac_detect_200
    ch_bifs = ch_detect_mu0_zero
    same_len = len(ac_bifs) == len(ch_bifs)
    bit_identical = same_len and all(
        a.param == c.param
        and np.array_equal(a.null_mode, c.null_mode)
        and mode_key(a) == mode_key(c)
        for a, c in zip(ac_bifs, ch_bifs)
    )
    gate(
        "5a",
        bit_identical,
        f"mu0=0 detection reproduces the criterion-1 run bit-for-bit "
        f"({len(ch_bifs)} crossings)",
    )
    assert bit_identical


def test_criterion_5b_mu0_shift_bounded(ch_detect_mu0_zero, ch_detect_mu0_005):
    zero = {mode_key(b): b.param for b in ch_detect_mu0_zero}
    offs = {mode_key(b): b.param for b in ch_detect_mu0_005}
    assert set(zero) == set(offs)
    shifts = {k: abs(offs[k] - zero[k]) for k in zero}
    worst = max(shifts.values())
    ok = worst <= 2.5e-3
    gate("5b", ok, f"max detected shift |eps(mu0=0.05) - eps(0)| = {worst:.4e} <= 2.5e-3")
    assert ok


def test_criterion_5c_exact_kernel_vs_detected(ch_detect_mu0_005):
    detected = {mode_key(b): b.param for b in ch_detect_mu0_005}
    rel = {}
    for (fam, n), value in detected.items():
        exact = ch_bifurcation(n, fam, 0.05).param_value
        rel[(fam, n)] = abs(value - exact) / exact
    worst_key = max(rel, key=rel.get)
    offenders = {f"{k[0]}{k[1]}": f"{v:.3e}" for k, v in rel.items() if v > 1e-3}
    ok = max(rel.values()) <= 1e-3
    gate(
        "5c",
        ok,
        f"exact-kernel vs detected, worst rel gap {rel[worst_key]:.4e} at "
        f"{worst_key[0]} n={worst_key[1]}"
        + (f"; over detection tolerance: {offenders}" if offenders else ""),
    )
    # same discretization bias as criterion 1, shifted by mu0
    assert ok, f"relative gaps over the 1e-3 detection tolerance: {offenders}"


# ---------------------------------------------------------------------------
# criterion 6: null-mode fidelity
# ---------------------------------------------------------------------------


def test_criterion_6_null_mode_fidelity(ac_detect_200, acok_diagram):
    ac_bifs, _ = ac_detect_200
    _, _, _, _, diagram = acok_diagram
    worst = 1.0
    count = 0
    for bifs, n_cells in ((ac_bifs, N_REF), (diagram.bifurcations, N_REF)):
        g = GridSpec(n_cells)
        for b in bifs:
            if b.mode_index is None:
                worst = 0.0
                continue
            mode = eigenmode(b.mode_index, b.mode_family, g)
            corr = abs(float(b.null_mode @ mode))
            corr /= float(np.linalg.norm(b.null_mode) * np.linalg.norm(mode))
            worst = min(worst, corr)
            count += 1
    ok = worst >= 0.99
    gate(6, ok, f"min |cosine similarity| over {count} detected null modes: {worst:.6f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalences():
    g = GridSpec(100)
    rng = np.random.default_rng(2026)

    # (a) Jacobian vs central differences, 20 random states per model
    fd_worst = 0.0
    for kind, params, center, spread in (
        ("ac", ModelParams(epsilon=0.2), 0.0, 0.9),
        ("ch", ModelParams(epsilon=0.3, mu0=0.05), 0.0, 0.9),
        ("acok", ModelParams(epsilon=0.3, gamma=700.0), 0.5, 0.45),
    ):
        model = model_by_kind(kind, g)
        for _ in range(20):
            state = center + spread * (2.0 * rng.random(g.n_nodes) - 1.0)
            jac = model.jacobian(state, params)
            num = np.empty_like(jac)
            for j in range(g.n_nodes):
                d = 1e-6 * (1.0 + abs(state[j]))
                up = state.copy()
                dn = state.copy()
                up[j] += d
                dn[j] -= d
                num[:, j] = (model.residual(up, params) - model.residual(dn, params)) / (2.0 * d)
            fd_worst = max(fd_worst, float(np.max(np.abs(jac - num))) / max(1.0, float(np.max(np.abs(jac)))))

    # (b) quadrature route vs solve route under grid halving.  The two
    # routes produce the same discrete operator up to rounding, so if both
    # gaps sit at the rounding floor the O(h^2) claim holds vacuously; the
    # non-degenerate order is then measured per route against the continuum.
    route_gaps = {}
    cont_gaps = {"quadrature": {}, "solve": {}}
    for n in (100, 200):
        gg = GridSpec(n)
        x = gg.nodes
        w = gg.trapezoid_weights
        f = np.sin(np.pi * x) + 0.3 * np.cos(2.0 * np.pi * x)
        f = f - float(w @ f) / 2.0
        u_quad = green_operator(gg) @ f
        u_solve = poisson_neumann_solve(-f, gg)
        route_gaps[n] = float(np.max(np.abs(u_quad - u_solve)))
        f_ref = np.sin(np.pi * x)
        exact = np.sin(np.pi * x) / np.pi**2 + x / np.pi
        cont_gaps["quadrature"][n] = float(np.max(np.abs(green_operator(gg) @ f_ref - exact)))
        cont_gaps["solve"][n] = float(np.max(np.abs(poisson_neumann_solve(-f_ref, gg) - exact)))
    floor = 64.0 * np.finfo(float).eps
    degenerate = all(gap <= floor for gap in route_gaps.values())
    if degenerate:
        route_order_ok = True
        route_note = (
            f"route gap at rounding floor ({route_gaps[100]:.1e}, {route_gaps[200]:.1e}): "
            "O(h^2) holds vacuously"
        )
    else:
        order = math.log2(route_gaps[100] / route_gaps[200])
        route_order_ok = order >= 1.8
        route_note = f"route-gap order {order:.2f}"
    cont_orders = {
        name: math.log2(gaps[100] / gaps[200]) for name, gaps in cont_gaps.items()
    }
    cont_ok = all(o >= 1.8 for o in cont_orders.values())

    # (c) constants are annihilated
    annihilation = max(
        float(np.max(np.abs(green_operator(GridSpec(n)) @ np.ones(n + 1))))
        for n in (100, 200)
    )

    # (d) scale-normalized symmetry identities
    ac = model_by_kind("ac", g)
    p_ac = ModelParams(epsilon=0.1)
    odd_worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        phi = 0.9 * (2.0 * r.random(g.n_nodes) - 1.0)
        base = ac.residual(phi, p_ac)
        gap = float(np.max(np.abs(ac.residual(-phi, p_ac) + base)))
        odd_worst = max(odd_worst, gap / max(1.0, float(np.max(np.abs(base)))))
    acok = model_by_kind("acok", g)
    p_ok = ModelParams(epsilon=0.3, gamma=1000.0)
    half_worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        phi = 0.5 + 0.45 * (2.0 * r.random(g.n_nodes) - 1.0)
        base = acok.residual(phi, p_ok)
        gap = float(np.max(np.abs(acok.residual(1.0 - phi, p_ok) + base)))
        half_worst = max(half_worst, gap / max(1.0, float(np.max(np.abs(base)))))

    ok = (
        fd_worst <= 1e-6
        and route_order_ok
        and cont_ok
        and annihilation <= 1e-13
        and odd_worst <= 1e-12
        and half_worst <= 1e-12
    )
    gate(
        7,
        ok,
        f"FD worst {fd_worst:.1e}; {route_note}; continuum orders "
        f"{cont_orders['quadrature']:.2f}/{cont_orders['solve']:.2f}; "
        f"constant annihilation {annihilation:.1e}; oddness {odd_worst:.1e}; "
        f"half-symmetry {half_worst:.1e}",
    )
    assert fd_worst <= 1e-6
    assert route_order_ok
    assert cont_ok, f"per-route continuum orders below 1.8: {cont_orders}"
    assert annihilation <= 1e-13
    assert odd_worst <= 1e-12
    assert half_worst <= 1e-12


# ---------------------------------------------------------------------------
# criterion 8: at least second-order convergence of detected crossings
# ---------------------------------------------------------------------------


def test_criterion_8_convergence_order(ac_detect_100, ac_detect_200):
    bifs_200, _ = ac_detect_200
    analytic = {mode_key(a): a.param_value for a in ac_bifurcations_in_range(0.05, 0.7)}
    gaps_100 = {
        mode_key(b): abs(b.param - analytic[mode_key(b)])
        for b in ac_detect_100
        if mode_key(b) in analytic
    }
    gaps_200 = {
        mode_key(b): abs(b.param - analytic[mode_key(b)])
        for b in bifs_200
        if mode_key(b) in analytic
    }
    assert set(gaps_100) == set(gaps_200) == set(analytic)
    worst_100 = max(gaps_100.values())
    worst_200 = max(gaps_200.values())
    ratio = worst_100 / worst_200
    ok = ratio >= 3.5
    gate(
        8,
        ok,
        f"max |detected - analytic|: {worst_100:.4e} (N=100) vs {worst_200:.4e} "
        f"(N=200), shrink factor {ratio:.2f} >= 3.5",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: implicit-step stability threshold
# ---------------------------------------------------------------------------


def test_criterion_9_stability_threshold():
    thresholds_exact = all(
        implicit_step_threshold(e) == e * e for e in (0.1, 0.3, 0.5, 1.0)
    )

    eps = 0.3
    g = GridSpec(N_REF)
    lap = laplacian_matrix(g)
    eye = np.eye(g.n_nodes)
    verdicts = {}
    for factor in (0.9, 1.1):
        dt = factor * eps * eps
        op = eye / dt - lap - eye / (eps * eps)
        # the folded boundary rows make the matrix non-normal, so the sign
        # of the spectrum is read from the real parts of the full eigenvalues
        real_parts = np.linalg.eigvals(op).real
        verdicts[factor] = (float(real_parts.min()), float(real_parts.max()))

    pd_below = verdicts[0.9][0] > 0.0
    indef_above = verdicts[1.1][0] < 0.0 < verdicts[1.1][1]
    ok = thresholds_exact and pd_below and indef_above
    gate(
        9,
        ok,
        f"threshold == eps^2 exactly; min real eig at 0.9*eps^2: "
        f"{verdicts[0.9][0]:.3f} (>0), at 1.1*eps^2: {verdicts[1.1][0]:.3f} (<0)",
    )
    assert thresholds_exact
    assert pd_below
    assert indef_above


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
