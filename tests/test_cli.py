"""End-to-end tests of the command-line interface: argument validation and
exit codes, CSV/JSON payload shapes, schema conformance, byte-identity of
equivalent runs (also across BLAS thread counts), and the self-check
subcommand's fault detection."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import phase_bifurcate
from phase_bifurcate import cli, linalg, models
from phase_bifurcate.continuation import NewtonFailure, compute_diagram, default_settings
from phase_bifurcate.linalg import BandBorder
from phase_bifurcate.models import AllenCahn


def run_cli(args):
    return cli.main(list(args))


def load_schema(name):
    with resources.files("phase_bifurcate.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# usage errors (exit code 1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["orbit"],  # unknown subcommand
        ["trace", "--model", "kdv"],
        ["trace", "--n", "15"],  # odd cell count
        ["trace", "--n", "4098"],  # above the hard cap
        ["trace", "--n", "2"],  # too small
        ["solutions", "--model", "ac"],  # missing slice value
        ["solutions", "--model", "acok"],  # missing slice value
        ["solutions", "--model", "ac", "--epsilon", "0.9"],  # outside window
        ["solutions", "--model", "acok", "--gamma", "-5"],  # outside window
        ["trace", "--model", "acok", "--eps-range", "0.1:0.5"],  # wrong axis
        ["trace", "--model", "ac", "--gamma-range", "0:100"],  # wrong axis
        ["trace", "--eps-range", "0.5"],  # malformed range
        ["trace", "--eps-range", "0.7:0.3"],  # empty window
        ["points", "--model", "ac", "--format", "yaml"],
        ["points", "--model", "ac", "--phi0", "nan"],  # would match no branch
        ["points", "--model", "ac", "--phi0", "inf"],
        ["trace", "--ghost-closure", "symmetric"],  # the models have one Neumann closure
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert run_cli(argv) == 1
    capsys.readouterr()  # swallow the argparse noise


@pytest.mark.parametrize(
    "extra, field",
    [
        (["--newton-tol", "nan"], "newton_tol"),
        (["--newton-tol", "inf"], "newton_tol"),
        (["--dedupe-tol", "nan"], "dedupe_tol"),
        (["--seed-amplitude", "nan"], "seed_amplitude"),
        (["--eps-range", "0.095:inf"], "param_max"),
    ],
    ids=["newton-tol-nan", "newton-tol-inf", "dedupe-tol-nan", "seed-amplitude-nan", "eps-range-inf"],
)
def test_non_finite_continuation_settings_exit_1(extra, field, capsys):
    # Each of these once ran on: NaN or inf tolerances made Newton "converge"
    # at once or dedupe keep nothing, and an infinite window failed mid-run.
    argv = ["solutions", "--model", "ac", "--epsilon", "0.1", "--n-cells", "40", "--eps-range", "0.095:0.4"]
    assert run_cli(argv + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["points", "--model", "ac", "--n-cells", "20", "--eps-range", "0:0.5"], 1,
         "error: epsilon must be positive, got 0.0\n"),
        (["trace", "--model", "ac", "--n-cells", "20", "--eps-range", "0:0.5"], 1,
         "error: epsilon must be positive, got 0.0\n"),
        (["points", "--model", "acok", "--n-cells", "20", "--gamma-range=-50:100"], 1,
         "error: gamma must be >= 0, got -50.0\n"),
        # gamma = 0 is in ACOK's domain, so a window may start there.
        (["points", "--model", "acok", "--n-cells", "40", "--gamma-range", "0:700", "--format", "json"], 0, ""),
    ],
    ids=["points-ac-eps-from-0", "trace-ac-eps-from-0", "points-acok-negative-gamma", "points-acok-gamma-from-0"],
)
def test_window_outside_the_model_domain_exits_1(argv, code, err, capsys):
    # The three windows used to fail inside the run, as "numerical failure" (exit 2).
    assert run_cli(argv) == code
    assert capsys.readouterr().err == err


def test_newton_tol_below_the_rounding_floor_exits_1(capsys):
    # This run used to find all three bifurcations, fail or lose every
    # switch seed, and exit 0 with count=0.
    argv = ["solutions", "--model", "ac", "--epsilon", "0.2", "--n-cells", "40", "--eps-range", "0.15:0.5",
            "--newton-tol", "1e-30"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --newton-tol 1e-30 is below the residual's rounding floor ")


@pytest.mark.parametrize("n_cells, reached", [(40, 9e-14), (200, 3e-12), (1024, 1e-10), (4096, 1.7e-9)])
def test_residual_floor_is_below_the_residuals_newton_reaches(n_cells, reached):
    # ``reached``: the median last residual of AC's traced points at eps = 0.1,
    # which the floor stays below with a factor 16 to spare.
    model = models.model_by_kind("ac", models.GridSpec(n_cells))
    settings = default_settings("ac")
    assert cli.residual_floor(model, models.ModelParams(epsilon=0.1), settings) < reached / 16


def test_residual_floor_is_below_every_residual_of_a_diagram():
    model = models.model_by_kind("ac", models.GridSpec(40))
    params = models.ModelParams(epsilon=0.1)
    settings = default_settings("ac", param_min=0.095, param_max=0.4)
    diagram = compute_diagram(model, params, settings)
    reached = [p.residual_norm for b in diagram.branches if b.origin.kind == "switched" for p in b.points[1:]]
    assert len(reached) > 100
    assert cli.residual_floor(model, params, settings) < min(reached)


@pytest.mark.parametrize(
    "n_cells, epsilon, window", [(40, 0.3, (0.0, 700.0)), (100, 0.3, (0.0, 700.0)), (200, 0.1, (0.0, 3000.0))])
def test_acok_residual_floor_is_within_2x_of_the_dense_jacobians(n_cells, epsilon, window):
    # Taken from all rows of the augmented band, the floor read a Poisson
    # u-row (about 4/h^2): 3.2x the dense floor at N=100 and 9.4x at N=200.
    model = models.model_by_kind("acok", models.GridSpec(n_cells))
    params = models.ModelParams(epsilon=epsilon)
    settings = default_settings("acok", param_min=window[0], param_max=window[1])
    zero = np.zeros(model.grid.n_nodes)
    dense = cli.RESIDUAL_FLOOR_ULPS * np.finfo(float).eps * min(
        float(np.abs(model.jacobian(zero, model.with_param(params, end))).sum(axis=1).max()) for end in window)
    assert dense / 2.0 <= cli.residual_floor(model, params, settings) <= 2.0 * dense


@pytest.mark.parametrize(
    "kind, n_cells, params, window, pinned",
    [
        ("ac", 40, models.ModelParams(epsilon=0.1), (0.095, 0.4), "0x1.7d886439ad444p-50"),
        ("ch", 200, models.ModelParams(epsilon=0.1, mu0=0.05), (0.25, 0.7), "0x1.386aaaaaaaaabp-45"),
    ],
)
def test_ac_ch_residual_floor_is_pinned_bitwise(kind, n_cells, params, window, pinned):
    # Every band row of AC/CH is visible: the floor is the one it always was.
    model = models.model_by_kind(kind, models.GridSpec(n_cells))
    settings = default_settings(kind, param_min=window[0], param_max=window[1])
    assert cli.residual_floor(model, params, settings).hex() == pinned


@pytest.mark.parametrize(
    "n_cells, window, pinned",
    [
        (40, (0.0, 700.0), "0x1.17fffffffffffp-51"),
        (100, (0.0, 700.0), "0x1.8100000000000p-49"),
        (4096, (0.0, 2000.0), "0x1.3334733333333p-38"),
    ],
)
def test_acok_residual_floor_is_pinned_bitwise(n_cells, window, pinned):
    # Recorded before ACOK's engine moved to u = 2 phi - 1: the floor is
    # still read off the phi model's band at phi = 0 (u = -1), the same
    # band bit for bit.
    model = models.model_by_kind("acok", models.GridSpec(n_cells))
    settings = default_settings("acok", param_min=window[0], param_max=window[1])
    params = models.ModelParams(epsilon=0.3)
    assert cli.residual_floor(model, params, settings).hex() == pinned
    odd = model.engine()
    minus_one = np.full(odd.grid.n_nodes, -1.0)
    for end in window:
        at = model.with_param(params, end)
        assert odd.linearize(minus_one, at).band.tobytes() == model.linearize(minus_one + 1.0, at).band.tobytes()


def test_only_an_explicit_newton_tol_meets_the_floor(monkeypatch, capsys):
    monkeypatch.setattr(cli, "residual_floor", lambda model, params, settings: 1.0)
    argv = ["points", "--model", "ac", "--n-cells", "20", "--eps-range", "0.3:0.7"]
    assert run_cli(argv) == 0
    assert run_cli(argv + ["--newton-tol", "0.5"]) == 1
    assert "rounding floor 1 at --n-cells 20" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# numerical and I/O failures (exit code 2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["points", "--model", "ch", "--mu0", "1.0", "--eps-range", "0.3:0.7", "--n", "40"],
        # solutions fails at the window's top, where each constant branch
        # is set up and corrected before any scan.
        ["solutions", "--model", "ch", "--mu0", "1.0", "--epsilon", "0.35", "--eps-range", "0.3:0.7",
         "--n-cells", "40"],
    ],
    ids=["points", "solutions"],
)
def test_ch_leaving_three_root_window_exits_2(argv, capsys):
    # mu0=1.0 has three constant roots only for small eps: the run leaves
    # the window inside [0.3, 0.7].
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "three-real-root window" in err


def test_newton_collapse_exits_2(monkeypatch, capsys):
    # No known input makes the engine's Newton corrector escape as an
    # exception, so the failure is forced at the diagram call.
    def collapse(*args, **kwargs):
        raise NewtonFailure("no_convergence", 14, 1.0)

    monkeypatch.setattr(cli, "compute_diagram", collapse)
    argv = ["solutions", "--model", "ac", "--epsilon", "0.1", "--n-cells", "40", "--eps-range", "0.095:0.4"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: Newton corrector failed (no_convergence)")


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert run_cli(["points", "--model", "ac", "--n", "40", "--eps-range", "0.3:0.7", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("I/O failure:")
    assert not missing.parent.exists()


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_points_csv_matches_analytic(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code = run_cli(
        ["points", "--model", "ac", "--n", "100", "--eps-range", "0.3:0.7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,analytic_value,detected_value,relative_gap"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("cosine", "1"), ("sine", "0")]
    for r in rows:
        analytic = float(r[2])
        detected = float(r[3])
        gap = float(r[4])
        assert gap == pytest.approx(abs(detected - analytic) / analytic, rel=1e-12)
        assert gap <= 1e-3
        # 17-significant-digit formatting round-trips exactly
        assert format(detected, ".17g") == r[3]
    capsys.readouterr()


def test_points_on_non_bifurcating_branch_is_empty(tmp_path, capsys):
    out = tmp_path / "points.csv"
    code = run_cli(
        ["points", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7",
         "--phi0", "1.0", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().strip().splitlines() == ["family,n,analytic_value,detected_value,relative_gap"]
    assert "no bifurcations on this branch" in capsys.readouterr().err


def test_points_json_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "points.json"
    code = run_cli(
        ["points", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("points.schema.json"))
    assert payload["config"]["model"] == "ac"
    assert payload["config"]["n_cells"] == 80
    assert payload["config"]["param_min"] == 0.3
    assert len(payload["rows"]) == 2
    capsys.readouterr()


def test_schema_fixture_rejects_a_payload_that_breaks_its_schema(monkeypatch, capsys):
    # conftest validates every payload the CLI emits; an extra config key
    # must fail the run before anything is written.
    to_dict = cli.RunConfig.to_dict
    monkeypatch.setattr(cli.RunConfig, "to_dict", lambda self: {**to_dict(self), "extra": 1})
    with pytest.raises(jsonschema.ValidationError, match="extra"):
        run_cli(["points", "--model", "ac", "--n", "20", "--eps-range", "0.3:0.7", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_cli_never_imports_jsonschema():
    """The program only writes JSON; the schemas are checked by the tests and the benchmark."""
    commands = [
        ["points", "--eps-range", "0.3:0.7"],
        ["trace", "--eps-range", "0.3:0.7"],
        ["solutions", "--epsilon", "0.5", "--eps-range", "0.3:0.7"],
        ["verify"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from phase_bifurcate import cli\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main([*argv, '--model', 'ac', '--n-cells', '40', '--format', 'json']) == 0, argv\n"
        "    json.loads(out.getvalue())\n"
        "print('jsonschema' in sys.modules)\n"
    )
    src = str(Path(phase_bifurcate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_csv_shape_and_summary_line(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli(
        ["trace", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "branch_id,param,phi_at_minus1,sup_norm,det_sign"
    ids = set()
    for ln in lines[1:]:
        bid, param, phi0, sup, det = ln.split(",")
        ids.add(bid)
        assert 0.3 <= float(param) <= 0.7
        assert int(det) in (-1, 0, 1)
        assert float(sup) >= abs(float(phi0)) - 1e-15
    assert {"trivial:phi=-1", "trivial:phi=0", "trivial:phi=+1", "bp0+", "bp0-", "bp1+", "bp1-"} == ids
    err = capsys.readouterr().err
    assert "branches=7 bifurcations=2" in err
    assert "stop[param_bound]=" in err


def test_trace_ch_mu0_zero_byte_identical_to_ac(tmp_path, capsys):
    a = tmp_path / "ac.csv"
    b = tmp_path / "ch.csv"
    args = ["--n", "80", "--eps-range", "0.3:0.7"]
    assert run_cli(["trace", "--model", "ac", *args, "--out", str(a)]) == 0
    assert run_cli(["trace", "--model", "ch", "--mu0", "0.0", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_ac_solutions_ignore_mu0(tmp_path, capsys):
    # mu0 is the Cahn-Hilliard offset; Allen-Cahn has none, whatever --mu0 says.
    args = ["solutions", "--model", "ac", "--epsilon", "0.3", "--n-cells", "60", "--eps-range", "0.25:0.7"]
    outs = [tmp_path / "mu0.csv", tmp_path / "mu03.csv"]
    assert run_cli([*args, "--mu0", "0", "--out", str(outs[0])]) == 0
    assert run_cli([*args, "--mu0", "0.3", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


def test_trace_json_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run_cli(
        ["trace", "--model", "ac", "--n", "80", "--eps-range", "0.5:0.7",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("diagram.schema.json"))
    assert payload["summary"]["branch_count"] == len(payload["branches"])
    assert payload["summary"]["bifurcation_count"] == len(payload["bifurcations"])
    assert payload["bifurcations"][0]["family"] == "sine"
    assert payload["bifurcations"][0]["n"] == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


def test_solutions_csv_and_count(tmp_path, capsys):
    out = tmp_path / "sols.csv"
    code = run_cli(
        ["solutions", "--model", "ac", "--n", "80", "--eps-range", "0.5:0.7",
         "--epsilon", "0.55", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    head = lines[0].split(",")
    assert head[:4] == ["branch_id", "origin", "param", "residual_norm"]
    assert head[4:] == [f"phi_{i}" for i in range(81)]
    assert len(lines) == 3  # header + the +/- pair
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 4 + 81
        assert float(cells[2]) == pytest.approx(0.55, abs=1e-12)
        assert float(cells[3]) <= 1e-9
    assert "count=2" in capsys.readouterr().err


def test_solutions_json_validates_against_schema(tmp_path, capsys):
    out = tmp_path / "sols.json"
    code = run_cli(
        ["solutions", "--model", "ac", "--n", "80", "--eps-range", "0.5:0.7",
         "--epsilon", "0.55", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("solutions.schema.json"))
    assert payload["count"] == 2
    assert payload["at_param"] == 0.55
    states = [payload["solutions"][0]["state"], payload["solutions"][1]["state"]]
    gap = max(abs(u + v) for u, v in zip(*states))
    assert gap <= 1e-8  # negation-symmetric pair
    capsys.readouterr()


def test_solutions_warns_once_per_offshoot_that_stops_short_of_the_slice(caplog, capsys):
    # --newton-tol 1e-14 is above the rounding floor but out of the
    # corrector's reach on bp1 and bp2, so their offshoots stop with
    # min_step before eps = 0.2 and the slice is empty; bp0's offshoots lead
    # away from the slice and stop there.  At the default tolerance every
    # offshoot reaches the slice and nothing is logged.
    argv = ["solutions", "--model", "ac", "--epsilon", "0.2", "--n-cells", "40", "--eps-range", "0.15:0.5"]
    with caplog.at_level("INFO", logger="phase_bifurcate"):
        assert run_cli(argv) == 0
    assert not [r for r in caplog.records if r.levelname == "WARNING"]
    assert "count=4" in capsys.readouterr().err
    caplog.clear()
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        assert run_cli(argv + ["--newton-tol", "1e-14"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "count=0\n"
    header = "branch_id,origin,param,residual_norm," + ",".join(f"phi_{i}" for i in range(41))
    assert captured.out.splitlines() == [header]
    ids = []
    for record in caplog.records:
        branch_id, reason, last, at = record.args
        assert record.getMessage() == (
            f"offshoot {branch_id} stopped with min_step at param={last!r}, short of the slice at 0.2")
        assert reason == "min_step" and last > at == 0.2
        ids.append(branch_id)
    assert ids == ["bp1+", "bp1-", "bp2+", "bp2-"]


@pytest.mark.parametrize("gamma", ["19", "20", "20.4"])
def test_solutions_warns_about_a_slice_correction_that_lands_on_a_constant_state(gamma, caplog, capsys):
    # ACOK at N=6, eps=1.5 crosses at gamma = 20.473, and bp0+ steps from
    # 20.471 straight to 10.471, both ends off every constant state.  The
    # slice interpolant there sits far below the square-root branch and
    # Newton-corrects onto phi = 1/2, so the slice misses both states: the
    # count and the exit code are unchanged, but each dropped correction is
    # now a WARNING naming its branch and segment.  At gamma = 15 the slice
    # finds both states and nothing is logged.
    argv = ["solutions", "--model", "acok", "--n-cells", "6", "--epsilon", "1.5", "--gamma"]
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        assert run_cli(argv + [gamma]) == 0
    captured = capsys.readouterr()
    assert captured.err == "count=0\n"
    assert captured.out == "branch_id,origin,param,residual_norm," + ",".join(f"phi_{i}" for i in range(7)) + "\n"
    messages = [r.getMessage() for r in caplog.records]
    assert [r.levelname for r in caplog.records] == ["WARNING"] * 2
    for branch_id, message in zip(("bp0+", "bp0-"), messages):
        assert message == (f"slice correction on {branch_id} from the segment between param=20.471071532055056 "
                           "and param=10.471071532055056 landed on a trivial state: dropped")
    caplog.clear()
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        assert run_cli(argv + ["15"]) == 0
    assert "count=2" in capsys.readouterr().err and not caplog.records


def test_points_warns_once_per_closed_form_crossing_without_a_detected_event(caplog, capsys):
    # The first 0.05 scan step, [0.0588, 0.1088], holds five crossings
    # (cosine 5 down to cosine 3) and only cosine 3 is bisected.  The other
    # four are named on stderr; stdout and the exit code stay as they were.
    # At the house step every crossing is detected and nothing is logged.
    argv = ["points", "--model", "ac", "--n-cells", "60", "--eps-range", "0.0588:0.461"]
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        assert run_cli(argv + ["--step", "0.05"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 9
    undetected = [(family, int(n), float(analytic)) for family, n, analytic, detected, _ in rows if detected == ""]
    assert [(family, n) for family, n, _ in undetected] == [("cosine", 5), ("sine", 4), ("cosine", 4), ("sine", 3)]
    assert [r.levelname for r in caplog.records] == ["WARNING"] * 4
    for record, (family, n, analytic) in zip(caplog.records, undetected):
        assert record.args == (family, n, pytest.approx(analytic, rel=1e-15))
        assert record.getMessage().startswith(f"closed-form crossing {family} {n} at param=")
        assert record.getMessage().endswith("try a finer --step")
    caplog.clear()
    with caplog.at_level("WARNING", logger="phase_bifurcate"):
        assert run_cli(argv) == 0
    assert all(line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:])
    assert caplog.records == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _assert_verify_passes(model_args, tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", *model_args, "--n", "100", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_schema("verify.schema.json"))
    assert payload["pass"] is True
    assert len(payload["checks"]) == 8
    assert all(c["pass"] for c in payload["checks"])
    assert "verify: pass (8/8 checks)" in capsys.readouterr().err
    return {c["name"]: c for c in payload["checks"]}


def test_verify_clean_build_passes(tmp_path, capsys):
    _assert_verify_passes(["--model", "ac"], tmp_path, capsys)


def test_verify_clean_build_passes_for_ch_with_offset(tmp_path, capsys):
    """CH off mu0 = 0: the middle root's crossings and their null modes."""
    checks = _assert_verify_passes(["--model", "ch", "--mu0", "0.05"], tmp_path, capsys)
    assert checks["null_mode_correlation_min"]["measured"] >= 0.99


class OneSidedRightAllenCahn(AllenCahn):
    """Allen-Cahn with a first-order right boundary: the ghost value
    phi_{N+1} = phi_N instead of the reflected phi_{N-1}.  Only the last row
    of A (phi_{N-1} - phi_N over h^2) and of B (main diagonal 11/12, sub
    diagonal 1/12) change, consistently in the residual and its Jacobian."""

    def residual(self, state, params):
        phi = np.asarray(state, dtype=float)
        out = super().residual(phi, params)
        f = (phi * phi * phi - phi) / (params.epsilon * params.epsilon)
        out[-1] = -(phi[-2] - phi[-1]) / (self.grid.h * self.grid.h) + f[-1] + (f[-2] - f[-1]) / 12.0
        return out

    def linearize(self, state, params):
        phi = np.asarray(state, dtype=float)
        band = super().linearize(phi, params).band.copy()
        s = (3.0 * phi * phi - 1.0) / (params.epsilon * params.epsilon)
        inv_h2 = 1.0 / (self.grid.h * self.grid.h)
        band[-1, 0] = -inv_h2 + s[-2] / 12.0
        band[-1, 1] = inv_h2 + 11.0 * s[-1] / 12.0
        return BandBorder(band=band, kl=1)


def test_verify_flags_broken_boundary_closure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "model_by_kind", lambda kind, grid: OneSidedRightAllenCahn(grid))
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--model", "ac", "--n", "100", "--out", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    checks = {c["name"]: c for c in payload["checks"]}
    assert payload["pass"] is False
    # the broken closure is consistently differentiated, so the Jacobian
    # check cannot see it; the physics-level check does
    assert checks["jacobian_vs_fd_rel"]["pass"] is True
    assert checks["bifurcation_gap_abs_max"]["pass"] is False
    assert checks["bifurcation_gap_abs_max"]["measured"] > 1e-3
    capsys.readouterr()


@pytest.mark.parametrize(
    "window",
    [
        ["--model", "ac", "--eps-range", "0.65:0.7"],
        ["--model", "acok", "--gamma-range", "0:100"],
        ["--model", "acok", "--gamma-range", "200:700"],
    ],
    ids=["ac-no-crossing", "acok-below-sine0", "acok-above-sine0"],
)
def test_verify_passes_on_windows_without_its_reference_crossing(window, capsys):
    # No closed-form crossing in the window owes no detection, and the ACOK
    # spot check applies only to windows that hold the sine-0 crossing.
    assert run_cli(["verify", *window, "--n-cells", "40"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_verify_acok_variant_checks(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--model", "acok", "--n", "80", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    names = [c["name"] for c in payload["checks"]]
    assert "half_symmetry_residual" in names
    assert "acok_sine0_spot_abs_gap" in names
    capsys.readouterr()


# ---------------------------------------------------------------------------
# kernels the engine uses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solutions", "--model", "ac", "--epsilon", "0.2", "--eps-range", "0.15:0.7"],
        ["solutions", "--model", "acok", "--gamma", "300", "--gamma-range", "0:700"],
        ["trace", "--model", "ac", "--arclength", "--eps-range", "0.25:0.7"],
        ["trace", "--model", "acok", "--arclength", "--gamma-range", "0:700"],
    ],
    ids=["ac-solutions", "acok-solutions", "ac-arclength", "acok-arclength"],
)
def test_engine_never_calls_the_dense_lu(argv, monkeypatch, capsys):
    """Every engine factorization is a band or band-plus-border one, every
    tridiagonal band, bordered or not, takes the tridiagonal kernel, and
    ACOK applies G by prefix sums, never building its dense matrix."""

    def refuse(*args, **kwargs):
        raise AssertionError("the engine called a kernel it must not")

    monkeypatch.setattr(linalg, "_dense_factor", refuse)
    if argv[2] == "ac":
        monkeypatch.setattr(linalg, "_band_lu", refuse)
    else:
        monkeypatch.setattr(models, "green_operator", refuse)
    assert run_cli([*argv, "--n-cells", "40", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] > 0 if argv[0] == "solutions" else len(payload["branches"]) > 3


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solutions", "--model", "ac", "--epsilon", "0.15", "--n-cells", "60", "--eps-range", "0.14:0.7"],
        # The residual applies G by prefix sums, without BLAS.  Every ACOK
        # factorization, the null mode at each detected event included, is
        # the pure-Python band-plus-border one.
        ["solutions", "--model", "acok", "--gamma", "100", "--epsilon", "0.3", "--n-cells", "60",
         "--gamma-range", "0:700"],
        # Pseudo-arclength on ACOK: the augmented Jacobian's border plus the
        # arclength border, two borders in one factorization.
        ["trace", "--model", "acok", "--arclength", "--n-cells", "60", "--gamma-range", "0:700"],
    ],
    ids=["ac", "acok", "acok-arclength"],
)
def test_output_is_byte_identical_for_one_and_two_blas_threads(argv):
    src = str(Path(phase_bifurcate.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, phase_bifurcate.cli as c; sys.exit(c.main(sys.argv[1:]))",
             *argv, "--format", "json"],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][0])
    # Run in a subprocess, these payloads bypass conftest's schema check.
    jsonschema.validate(payload, load_schema("diagram.schema.json" if argv[0] == "trace"
                                             else "solutions.schema.json"))
    if argv[0] == "trace":
        assert len(payload["bifurcations"]) > 0 and len(payload["branches"]) > 3
    else:
        assert payload["count"] > 0


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_console_script_runs():
    exe = shutil.which("phase-bifurcate")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "points", "--model", "ac", "--n", "80", "--eps-range", "0.3:0.7"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "family,n,analytic_value,detected_value,relative_gap"


def test_module_invocation_reports_version_of_parser():
    # `python -m` style use goes through the same main()
    proc = subprocess.run(
        [sys.executable, "-c", "import phase_bifurcate.cli as c; raise SystemExit(c.main(['points', '--help']))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "--eps-range" in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
