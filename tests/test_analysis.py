"""Tests for the closed-form predictions: critical parameter values, mode
shapes, and stability thresholds.  These are the reference numbers the
detection tests compare against, so they get pinned hard here."""

import math

import numpy as np
import pytest

from phase_bifurcate import (
    GridSpec,
    ModelParams,
    ac_bifurcation,
    ac_bifurcations_in_range,
    acok_bifurcation,
    acok_bifurcations_in_range,
    ch_bifurcation,
    cosine_wavenumber,
    eigenmode,
    implicit_step_threshold,
    laplacian_apply,
    mode_wavenumber,
    sine_wavenumber,
)


# ---------------------------------------------------------------------------
# wavenumbers
# ---------------------------------------------------------------------------


def test_wavenumber_values():
    assert sine_wavenumber(0) == pytest.approx(math.pi / 2.0)
    assert sine_wavenumber(2) == pytest.approx(2.5 * math.pi)
    assert cosine_wavenumber(1) == pytest.approx(math.pi)
    assert cosine_wavenumber(4) == pytest.approx(4.0 * math.pi)


def test_wavenumber_domain_checks():
    with pytest.raises(ValueError):
        sine_wavenumber(-1)
    with pytest.raises(ValueError):
        cosine_wavenumber(0)  # the constant mode never bifurcates
    with pytest.raises(ValueError):
        mode_wavenumber(1, "chebyshev")


# ---------------------------------------------------------------------------
# Allen-Cahn critical widths
# ---------------------------------------------------------------------------


def test_ac_first_crossings_closed_form():
    assert ac_bifurcation(0, "sine").param_value == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert ac_bifurcation(1, "cosine").param_value == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert ac_bifurcation(1, "sine").param_value == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)


def test_ac_record_fields():
    b = ac_bifurcation(3, "cosine")
    assert b.model_kind == "ac"
    assert b.mode_family == "cosine"
    assert b.mode_index == 3
    assert b.param_value == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-15)


def test_ac_range_enumeration_sorted_and_interlaced():
    vals = ac_bifurcations_in_range(0.05, 0.7)
    eps = [b.param_value for b in vals]
    assert eps == sorted(eps, reverse=True)
    assert all(0.05 <= e <= 0.7 for e in eps)
    # the families strictly alternate: sine0 > cos1 > sine1 > cos2 > ...
    families = [b.mode_family for b in vals]
    assert families[0] == "sine"
    assert all(a != b for a, b in zip(families, families[1:]))
    # window [0.05, 0.7] holds modes with k in [1/0.7, 20]: 12 of them
    assert len(vals) == 12


def test_ac_range_rejects_bad_window():
    with pytest.raises(ValueError):
        ac_bifurcations_in_range(0.0, 0.7)
    with pytest.raises(ValueError):
        ac_bifurcations_in_range(0.5, 0.2)


# ---------------------------------------------------------------------------
# constant-potential (mu0) shifts
# ---------------------------------------------------------------------------


def test_ch_at_mu0_zero_equals_ac():
    for fam, n in (("sine", 0), ("cosine", 1), ("sine", 3)):
        assert ch_bifurcation(n, fam, 0.0).param_value == ac_bifurcation(n, fam).param_value


def test_ch_shift_is_small_negative_and_quadratic_in_mu0():
    for fam, n in (("sine", 0), ("cosine", 1), ("sine", 1)):
        base = ac_bifurcation(n, fam).param_value
        shift_05 = ch_bifurcation(n, fam, 0.05).param_value - base
        shift_10 = ch_bifurcation(n, fam, 0.10).param_value - base
        assert shift_05 < 0.0, f"({fam},{n})"
        assert abs(shift_05) <= 1e-3
        # O(mu0^2): doubling mu0 roughly quadruples the shift
        assert shift_10 / shift_05 == pytest.approx(4.0, rel=0.05)


def test_ch_shift_even_in_mu0():
    for fam, n in (("sine", 0), ("cosine", 2)):
        plus = ch_bifurcation(n, fam, 0.05).param_value
        minus = ch_bifurcation(n, fam, -0.05).param_value
        assert plus == pytest.approx(minus, abs=1e-12)


def test_ch_shift_magnitude_matches_measured_scale():
    # worst first-mode shift at mu0=0.05 is a few 1e-4 (used by acceptance)
    shifts = [
        abs(ch_bifurcation(n, fam, 0.05).param_value - ac_bifurcation(n, fam).param_value)
        for fam, n in (("sine", 0), ("cosine", 1), ("sine", 1), ("cosine", 2))
    ]
    assert max(shifts) <= 5e-4
    assert max(shifts) > 1e-5


def test_ch_kernel_condition_holds_at_root():
    from phase_bifurcate import ch_trivial_roots

    b = ch_bifurcation(0, "sine", 0.05)
    eps = b.param_value
    k = sine_wavenumber(0)
    roots = ch_trivial_roots(ModelParams(epsilon=eps, mu0=0.05))
    phi0 = roots.values[roots.middle_index]
    assert k * k - 1.0 / eps**2 + 3.0 * phi0**2 / eps**2 == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# nonlocal-strength crossings
# ---------------------------------------------------------------------------


def test_acok_closed_form_pins():
    def gamma(k, eps=0.3):
        return 18.0 * k * k / eps - eps * k**4

    assert acok_bifurcation(0, "sine", 0.3).param_value == pytest.approx(gamma(math.pi / 2), rel=1e-14)
    assert acok_bifurcation(1, "cosine", 0.3).param_value == pytest.approx(gamma(math.pi), rel=1e-14)
    # spot values
    assert acok_bifurcation(0, "sine", 0.3).param_value == pytest.approx(146.2176, abs=1e-3)
    assert acok_bifurcation(1, "cosine", 0.3).param_value == pytest.approx(562.9535, abs=1e-3)


def test_acok_gamma_peaks_at_k_three_over_eps():
    # gamma(k) = k^2 (18/eps - eps k^2) maxes at k = 3/eps with value 81/eps^3
    eps = 0.3
    k_star = 3.0 / eps
    peak = 81.0 / eps**3
    assert peak == pytest.approx(3000.0)
    below = acok_bifurcation(2, "sine", eps).param_value  # k = 2.5 pi < 10
    assert below < peak
    # every enumerated crossing sits at or below the peak
    vals = acok_bifurcations_in_range(eps, 0.0, 1e9)
    assert max(v.param_value for v in vals) <= peak
    assert all(mode_wavenumber(v.mode_index, v.mode_family) <= math.sqrt(18.0) / eps for v in vals)


def test_acok_large_modes_go_negative_but_are_reported():
    b = acok_bifurcation(12, "cosine", 0.3)
    assert b.param_value < 0.0


def test_acok_enumeration_window():
    vals = acok_bifurcations_in_range(0.3, 0.0, 2000.0)
    assert len(vals) == 6
    got = sorted(round(v.param_value, 2) for v in vals)
    assert got == [8.42, 146.22, 562.95, 1184.46, 1901.14, 1993.80]
    wide = acok_bifurcations_in_range(0.3, 0.0, 3000.0)
    assert len(wide) == 9
    assert [v.param_value for v in wide] == sorted(v.param_value for v in wide)


def test_acok_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        acok_bifurcation(0, "sine", 0.0)


# ---------------------------------------------------------------------------
# eigenmodes
# ---------------------------------------------------------------------------


def test_eigenmode_normalization_and_sign():
    g = GridSpec(100)
    for fam, n in (("sine", 0), ("sine", 2), ("cosine", 1), ("cosine", 3)):
        v = eigenmode(n, fam, g)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
        nz = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
        assert nz[0] > 0.0


def test_eigenmode_parity_is_bitwise():
    g = GridSpec(200)
    sine = eigenmode(1, "sine", g)
    cosine = eigenmode(2, "cosine", g)
    assert np.array_equal(sine, -sine[::-1])
    assert np.array_equal(cosine, cosine[::-1])


def test_eigenmode_zero_trapezoid_mean():
    g = GridSpec(100)
    w = g.trapezoid_weights
    for fam, n in (("sine", 0), ("sine", 1), ("cosine", 1), ("cosine", 2), ("cosine", 5)):
        assert abs(float(w @ eigenmode(n, fam, g))) <= 1e-12, f"({fam},{n})"


def test_eigenmode_rayleigh_quotient_near_k_squared():
    g = GridSpec(200)
    for fam, n in (("sine", 0), ("cosine", 1), ("sine", 2)):
        v = eigenmode(n, fam, g)
        k = mode_wavenumber(n, fam)
        rq = -float(v @ laplacian_apply(v, g))
        assert rq == pytest.approx(k * k, rel=2e-3), f"({fam},{n})"


# ---------------------------------------------------------------------------
# the time-step threshold
# ---------------------------------------------------------------------------


def test_implicit_step_threshold_is_eps_squared():
    assert implicit_step_threshold(0.3) == 0.3 * 0.3
    assert implicit_step_threshold(1.0) == 1.0
    with pytest.raises(ValueError):
        implicit_step_threshold(0.0)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
